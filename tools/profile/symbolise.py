#!/usr/bin/env python3
"""Symbolises `sampler.c` dumps and prints where the time went.

    symbolise.py DUMP [DUMP ...] [--top N] [--function NAME ...]

Every dump must come from the same binary (a benchmark run and the
child processes it spawns, say); their samples are pooled. Prints

- the functions with the largest *inclusive* share (on the stack at all,
  at any inline depth) and the largest *self* share (the interrupted
  instruction is in the function's body, counting code inlined into it);
- for each `--function NAME` (a substring of the demangled name), its
  inclusive and self share and its self time per source line, the line
  being the function's own: a call site of inlined code is charged to the
  line in NAME that made the call.

Addresses are symbolised with `addr2line -a -f -i -C` against the file
mapped at them, after two corrections:

- load base: an address is taken relative to the *lowest* mapping of its
  file in the dump's maps, not to the executable segment's start minus
  its file offset (that symbolises to nonsense);
- return addresses: frames 0 and 1 (the signal handler and the
  trampoline) are dropped, frame 2 is the interrupted instruction and
  used as is, and 1 is subtracted from every frame above it, so a call
  is charged to the call's line rather than to the line after it.
"""

import argparse
import collections
import subprocess
import sys

SKIP_FRAMES = 2


def parse_dump(path):
    samples, maps = [], []
    with open(path) as f:
        in_maps = False
        for line in f:
            if in_maps:
                maps.append(line.rstrip("\n"))
            elif line.startswith("S"):
                samples.append([int(a, 16) for a in line.split()[1:]])
            elif line.startswith("M"):
                in_maps = True
    return samples, maps


def load_bases(maps):
    """(start, end, file, base) per file-backed mapping; `base` is the
    lowest start address among the mappings of that file."""
    rows, lowest = [], {}
    for line in maps:
        parts = line.split(None, 5)
        if len(parts) < 6 or not parts[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in parts[0].split("-"))
        path = parts[5]
        rows.append((start, end, path))
        lowest[path] = min(lowest.get(path, start), start)
    return [(s, e, p, lowest[p]) for s, e, p in rows]


def locate(mappings, addr):
    for start, end, path, base in mappings:
        if start <= addr < end:
            return path, addr - base
    return None, addr


def addr2line(path, offsets):
    """offset -> [(function, file:line)], innermost inline frame first."""
    if not offsets:
        return {}
    query = "\n".join(f"{o:x}" for o in offsets) + "\n"
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
        input=query,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    chains, current, i = {}, None, 0
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            current = int(line, 16)
            chains[current] = []
            i += 1
            continue
        function = line
        where = out[i + 1] if i + 1 < len(out) else "??:0"
        where = where.split(" (discriminator")[0]
        chains[current].append((function, where))
        i += 2
    return chains


def symbolise(samples, mappings):
    """Each sample as a list of inline chains, leaf frame first."""
    wanted = collections.defaultdict(set)
    stacks = []
    for frames in samples:
        stack = []
        for depth, addr in enumerate(frames[SKIP_FRAMES:]):
            pc = addr if depth == 0 else addr - 1
            path, offset = locate(mappings, pc)
            stack.append((path, offset))
            if path is not None:
                wanted[path].add(offset)
        stacks.append(stack)
    chains = {}
    for path, offsets in wanted.items():
        for offset, chain in addr2line(path, sorted(offsets)).items():
            chains[(path, offset)] = chain
    out = []
    for stack in stacks:
        resolved = []
        for path, offset in stack:
            chain = chains.get((path, offset)) if path else None
            if not chain or chain[0][0] == "??":
                name = path.rsplit("/", 1)[-1] if path else "?"
                chain = [(f"[{name}+{offset:#x}]", "??:0")]
            resolved.append(chain)
        out.append(resolved)
    return out


def pct(count, total):
    return 100.0 * count / total if total else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dumps", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--function", action="append", default=[])
    args = ap.parse_args()

    samples, maps = [], None
    for path in args.dumps:
        s, m = parse_dump(path)
        samples += s
        maps = maps or m
    stacks = symbolise(samples, load_bases(maps or []))
    total = len(stacks)
    if total == 0:
        sys.exit("no samples")

    inclusive, self_ = collections.Counter(), collections.Counter()
    for stack in stacks:
        inclusive.update({fn for chain in stack for fn, _ in chain})
        if stack:
            self_.update({fn for fn, _ in stack[0]})

    print(f"{total} samples from {len(args.dumps)} dump(s)")
    for title, counter in (("inclusive", inclusive), ("self", self_)):
        print(f"\ntop {args.top} by {title} share:")
        for fn, n in counter.most_common(args.top):
            print(f"  {pct(n, total):6.2f} %  {fn}")

    for name in args.function:
        matched = sorted(fn for fn in inclusive if name in fn)
        if not matched:
            print(f"\n--function {name!r}: no sampled function matches")
            continue
        incl = sum(1 for st in stacks if any(fn in matched for ch in st for fn, _ in ch))
        lines = collections.Counter()
        for stack in stacks:
            if not stack:
                continue
            own = [where for fn, where in stack[0] if fn in matched]
            if own:
                lines[own[-1]] += 1
        own_total = sum(lines.values())
        print(f"\n--function {name!r} ({len(matched)} symbol(s)):")
        for fn in matched:
            print(f"  = {fn}")
        print(f"  inclusive {pct(incl, total):.2f} %, self {pct(own_total, total):.2f} %")
        print("  self by line (share of all samples, share of the function's self):")
        for where, n in lines.most_common(args.top):
            print(f"  {pct(n, total):6.2f} %  {pct(n, own_total):6.2f} %  {where}")


if __name__ == "__main__":
    main()
