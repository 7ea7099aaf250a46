/*
 * A sampling CPU profiler to LD_PRELOAD into any binary, for machines
 * without `perf`.
 *
 * The constructor installs a SIGPROF handler and a 1 ms ITIMER_PROF
 * interval timer (CPU time, so an idle process takes no samples; the
 * kernel tick caps the real rate at about 250 samples/s). Each signal
 * records one `backtrace()` into a preallocated buffer. The destructor
 * writes `sampler.<pid>.raw` into the working directory:
 *
 *   S <addr> <addr> ...     one line per sample, frame 0 first (hex)
 *   M                        then the process's /proc/self/maps verbatim
 *
 * Frames 0 and 1 of every sample are this handler and the kernel's
 * signal trampoline; frame 2 is the interrupted instruction. Every frame
 * above that is a return address. `symbolise.py` applies both rules.
 *
 * Build: gcc -O2 -shared -fPIC -o libsampler.so sampler.c
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <unistd.h>

#define MAX_DEPTH 64
/* Words of sample storage: a depth word plus the frames, per sample.
 * Reserved, not committed: only the pages a run fills are touched. */
#define CAPACITY_WORDS (16u << 20)

static uintptr_t *buffer;
static volatile sig_atomic_t used;
static volatile sig_atomic_t dropped;

static void on_sigprof(int sig, siginfo_t *info, void *uctx) {
    (void)sig;
    (void)info;
    (void)uctx;
    void *frames[MAX_DEPTH];
    int depth = backtrace(frames, MAX_DEPTH);
    size_t at = (size_t)used;
    if (at + 1 + (size_t)depth > CAPACITY_WORDS) {
        dropped = dropped + 1;
        return;
    }
    buffer[at] = (uintptr_t)depth;
    memcpy(&buffer[at + 1], frames, sizeof(void *) * (size_t)depth);
    used = (sig_atomic_t)(at + 1 + (size_t)depth);
}

__attribute__((constructor)) static void sampler_start(void) {
    buffer = mmap(NULL, CAPACITY_WORDS * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buffer == MAP_FAILED) {
        buffer = NULL;
        return;
    }
    /* The first backtrace() loads the unwinder, which allocates: do it
     * here, not inside the signal handler. */
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
    if (buffer == NULL) {
        return;
    }
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);

    char path[64];
    snprintf(path, sizeof path, "sampler.%d.raw", (int)getpid());
    FILE *out = fopen(path, "w");
    if (out == NULL) {
        return;
    }
    size_t end = (size_t)used;
    for (size_t at = 0; at < end;) {
        size_t depth = (size_t)buffer[at];
        fputc('S', out);
        for (size_t k = 0; k < depth; k++) {
            fprintf(out, " %lx", (unsigned long)buffer[at + 1 + k]);
        }
        fputc('\n', out);
        at += 1 + depth;
    }
    fputs("M\n", out);
    int maps = open("/proc/self/maps", O_RDONLY);
    if (maps >= 0) {
        char chunk[4096];
        ssize_t n;
        while ((n = read(maps, chunk, sizeof chunk)) > 0) {
            fwrite(chunk, 1, (size_t)n, out);
        }
        close(maps);
    }
    if (dropped) {
        fprintf(stderr, "sampler: buffer full, %d samples dropped\n", (int)dropped);
    }
    fclose(out);
}
