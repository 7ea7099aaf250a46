//! Layer probes: micro-kernels and the two scaling ladders. Every traced
//! run executes them after its own traced pass, on inputs taken from the
//! frozen `scale_n` / `bftcup_scale` / `fig_small` definitions at pool
//! seeds chosen by `--seed`, so any single traced run prints each layer's
//! cost model, whatever the workload.
//!
//! Every kernel calls only public functions of the layer it measures.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng as _};
use scup_cup::discovery::{SinkCore, SinkMsg};
use scup_fbqs::{QuorumEngine, SliceFamily};
use scup_graph::{kosr, KnowledgeGraph, ProcessId, ProcessSet};
use scup_harness::campaign::{run_one, CampaignReport};
use scup_harness::scenario::ChurnSpec;
use scup_harness::{campaign_from_str, topology, AdversaryRegistry};
use scup_scp::{QuorumCheck, Statement, VoteTracker};
use scup_sim::{
    Actor, Context, DelayFault, DupFault, FaultPlan, LossFault, NetworkConfig, SimMessage,
    Simulation,
};
use stellar_cup::build_slices;
use stellar_cup::consensus::{self, EndToEndConfig};
use stellar_cup::sink_detector::GetSinkMode;

use crate::report::Rows;
use crate::sampled::{decomposed, Decomposed};
use crate::spec::{BFT_SIZES, KERNEL_SIZES, SCP_SIZES};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{self, Entry, Workload};
use crate::{Run, Tally};

/// What every probe needs from the run it is part of.
struct Probe<'a> {
    registry: &'a AdversaryRegistry,
    smoke: bool,
    tracer: &'a mut Tracer,
    /// Run id of the next probe span (far above any traced pass's).
    next_run: u64,
    rows: &'a mut Rows,
    tally: &'a mut Tally,
}

impl Probe<'_> {
    /// How much work to do: `smoke` in a smoke run, else `full`.
    fn pick(&self, smoke: usize, full: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// The ladder rungs to climb: all of them, or the two lowest in a
    /// smoke run (the rest then read 0, like any unexercised row).
    fn rungs(&self, sizes: &[usize]) -> Vec<usize> {
        sizes[..self.pick(2, sizes.len())].to_vec()
    }

    /// One frozen `(scenario, seed)` through the decomposed path, with
    /// its oracle checked; returns the observation.
    fn run_decomposed(&mut self, entry: &Entry, seed: u64) -> Result<Decomposed, String> {
        let d = decomposed(
            &entry.scenario,
            seed,
            self.registry,
            self.tracer,
            self.next_run,
        )?;
        self.next_run += 1;
        self.tally.note(d.invariants.holds(), || {
            format!("probe {} seed {seed}: oracle failed", entry.scenario.name)
        });
        Ok(d)
    }
}

/// Median nanoseconds per operation over `batches` timed batches of
/// `f`, which returns how many operations it did.
fn ns_per_op(batches: usize, mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            let ops = f();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    stats::median(&samples)
}

/// The graph and faulty set of one frozen `(scenario, seed)`.
fn instance(entry: &Entry, seed: u64) -> Result<(KnowledgeGraph, ProcessSet), String> {
    let s = &entry.scenario;
    let (kg, generated) = topology::instantiate(&s.topology, s.f, seed);
    let faulty = topology::place_faults(&s.faults, &kg, generated, seed)?;
    Ok((kg, faulty))
}

/// The entry called `name` with its index (pool offsets are per index).
fn indexed<'a>(w: &'a Workload, name: &str) -> Result<(usize, &'a Entry), String> {
    w.entries
        .iter()
        .enumerate()
        .find(|(_, e)| e.scenario.name == name)
        .ok_or(format!(
            "frozen workload `{}` lost scenario `{name}`",
            w.name
        ))
}

/// The graph, faulty set and Algorithm-2 slices one `scale_n` run works
/// on: what the quorum and voting kernels take as input.
struct System {
    kg: KnowledgeGraph,
    faulty: ProcessSet,
    f: usize,
    slices: Vec<SliceFamily>,
}

fn system(entry: &Entry, seed: u64) -> Result<System, String> {
    let s = &entry.scenario;
    let (kg, faulty) = instance(entry, seed)?;
    let config = EndToEndConfig {
        seed,
        ..EndToEndConfig::default()
    };
    let (detections, _) = consensus::run_sink_detection(&kg, s.f, &faulty, &config);
    let slices = detections
        .iter()
        .map(|d| match d {
            Some(d) => build_slices(d, s.f),
            None => SliceFamily::empty(),
        })
        .collect();
    Ok(System {
        kg,
        faulty,
        f: s.f,
        slices,
    })
}

/// Query sets drawn from the seed: each process is in with probability
/// 0.5, 0.7, 0.9 or 1 (cycling), so the closure sees both sets that
/// unravel and sets that are quorums.
fn query_sets(n: usize, seed: u64) -> Vec<ProcessSet> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e75);
    (0..64)
        .map(|k| {
            let p = [0.5, 0.7, 0.9, 1.0][k % 4];
            (0..n as u32)
                .filter(|_| rng.random_bool(p))
                .map(ProcessId::new)
                .collect()
        })
        .collect()
}

impl Probe<'_> {
    fn fbqs_kernels(&mut self, sys: &System, n: usize, seed: u64) {
        let procs = sys.kg.n();
        let reps = self.pick(20, 400) as u64;
        let build = ns_per_op(5, || {
            for _ in 0..reps {
                black_box(QuorumEngine::from_families(procs, black_box(&sys.slices)));
            }
            reps
        });
        self.rows
            .set(&format!("fbqs.engine_build_us.n{n}"), build / 1e3);

        let engine = QuorumEngine::from_families(procs, &sys.slices);
        let mut scratch = engine.scratch();
        let sets = query_sets(procs, seed);
        let rounds = self.pick(20, 1_500);
        let queries = (rounds * sets.len()) as u64;
        let is_quorum = ns_per_op(5, || {
            let mut hits = 0u64;
            for _ in 0..rounds {
                for q in &sets {
                    hits += u64::from(engine.is_quorum_in(black_box(q), &mut scratch));
                }
            }
            black_box(hits);
            queries
        });
        self.rows.set(&format!("fbqs.is_quorum_ns.n{n}"), is_quorum);

        let mut out = ProcessSet::new();
        let closure = ns_per_op(5, || {
            for _ in 0..rounds {
                for u in &sets {
                    engine.quorum_closure_in(black_box(u), &mut scratch, &mut out);
                    black_box(out.len());
                }
            }
            queries
        });
        self.rows.set(&format!("fbqs.closure_ns.n{n}"), closure);

        let v_blocking = ns_per_op(5, || {
            let mut hits = 0u64;
            for _ in 0..rounds {
                for (k, b) in sets.iter().enumerate() {
                    let i = ProcessId::new((k % procs) as u32);
                    hits += u64::from(engine.is_v_blocking(i, black_box(b)));
                }
            }
            black_box(hits);
            queries
        });
        self.rows
            .set(&format!("fbqs.v_blocking_ns.n{n}"), v_blocking);
    }

    /// `VoteTracker::update` per recorded envelope over a synthetic
    /// nominate → prepare → commit ratchet: the first correct process
    /// hears every other correct process vote, then accept, each of the
    /// three statements, and re-evaluates after each envelope.
    fn voting_kernel(&mut self, sys: &System, n: usize) {
        let me = sys
            .kg
            .processes()
            .find(|i| !sys.faulty.contains(*i))
            .expect("a correct process");
        let own = &sys.slices[me.index()];
        let peers: Vec<ProcessId> = sys
            .kg
            .processes()
            .filter(|i| *i != me && !sys.faulty.contains(*i))
            .collect();
        let mut registry = QuorumCheck::new();
        for &p in &peers {
            registry.record_slices(p, &sys.slices[p.index()]);
        }
        let value = 107;
        let ratchet = [
            Statement::Nominate(value),
            Statement::Prepare(1, value),
            Statement::Commit(1, value),
        ];
        let reps = self.pick(5, 200);
        let ns = ns_per_op(5, || {
            let mut envelopes = 0u64;
            for _ in 0..reps {
                let mut check = registry.clone();
                let mut tracker = VoteTracker::new();
                for stmt in ratchet {
                    tracker.vote(me, stmt);
                    for &p in &peers {
                        tracker.record_vote(p, stmt);
                        black_box(tracker.update(me, own, &mut check));
                        envelopes += 1;
                    }
                    for &p in &peers {
                        tracker.record_accept(p, stmt);
                        black_box(tracker.update(me, own, &mut check));
                        envelopes += 1;
                    }
                }
                black_box(tracker.confirmed().count());
            }
            envelopes
        });
        self.rows.set(&format!("scp.voting_update_ns.n{n}"), ns);
    }

    /// `SinkCore::start` / `on_message` for every correct process, driven
    /// by an in-benchmark FIFO queue — discovery with no simulator
    /// underneath.
    fn sink_core_kernel(&mut self, sys: &System) {
        let reps = self.pick(2, 40);
        let ns = ns_per_op(5, || {
            let mut messages = 0u64;
            for _ in 0..reps {
                let mut cores: Vec<Option<SinkCore>> = sys
                    .kg
                    .processes()
                    .map(|i| {
                        (!sys.faulty.contains(i))
                            .then(|| SinkCore::new(i, sys.kg.pd(i).clone(), sys.f))
                    })
                    .collect();
                let mut queue: VecDeque<(ProcessId, ProcessId, SinkMsg)> = VecDeque::new();
                for (i, core) in cores.iter_mut().enumerate() {
                    if let Some(core) = core {
                        let from = ProcessId::new(i as u32);
                        queue.extend(core.start().into_iter().map(|(to, m)| (from, to, m)));
                    }
                }
                while let Some((from, to, msg)) = queue.pop_front() {
                    messages += 1;
                    if let Some(core) = &mut cores[to.index()] {
                        let out = core.on_message(from, msg);
                        queue.extend(out.into_iter().map(|(next, m)| (to, next, m)));
                    }
                }
                black_box(
                    cores
                        .iter()
                        .flatten()
                        .filter(|c| c.verdict().is_some())
                        .count(),
                );
            }
            messages
        });
        self.rows.set("cup.sink_core_ns_per_msg", ns);
    }
}

/// The benchmark-local flood: tokens bounce between a process and each of
/// its contacts until their hop budget runs out. The actor does nothing
/// else, so the time per event is the simulator's own. [`TOKENS`] per
/// contact keep the event queue about as deep as a real run's.
#[derive(Clone, Debug)]
struct Token(u32);

impl SimMessage for Token {}

const TOKENS: usize = 16;

struct Flood {
    hops: u32,
}

impl Actor<Token> for Flood {
    fn on_start(&mut self, ctx: &mut Context<'_, Token>) {
        for _ in 0..TOKENS {
            ctx.broadcast_known(Token(self.hops));
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Token>, from: ProcessId, msg: Token) {
        if msg.0 > 0 {
            ctx.send(from, Token(msg.0 - 1));
        }
    }
}

/// What a flood simulation is dressed with before it runs.
enum Plane {
    Zero,
    Faults,
    Churn,
}

fn flood_sim(kg: &KnowledgeGraph, hops: u32, seed: u64, plane: &Plane) -> Simulation<Token> {
    let net = NetworkConfig::partially_synchronous(150, 10, seed);
    let mut sim = Simulation::new(kg.clone(), net);
    match plane {
        Plane::Zero => {}
        Plane::Faults => sim.set_fault_plan(FaultPlan {
            loss: Some(LossFault {
                prob: 0.05,
                until: u64::MAX,
                links: None,
            }),
            duplication: Some(DupFault {
                prob: 0.05,
                until: u64::MAX,
            }),
            extra_delay: Some(DelayFault {
                ticks: 5,
                until: u64::MAX,
            }),
            ..FaultPlan::default()
        }),
        Plane::Churn => {
            let last = kg.n() as u32 - 1;
            let spec = ChurnSpec {
                joins: vec![last],
                join_at: 50,
                leaves: vec![last - 1],
                leave_at: 100,
                ..ChurnSpec::default()
            };
            sim.set_churn_plan(spec.to_plan(kg));
        }
    }
    for _ in 0..kg.n() {
        sim.add_actor(Box::new(Flood { hops }));
    }
    sim
}

impl Probe<'_> {
    /// Nanoseconds per `Simulation::step` event and the deepest queue seen.
    fn flood_kernel(&self, kg: &KnowledgeGraph, seed: u64, plane: Plane) -> (f64, usize) {
        let edges: usize = kg.processes().map(|i| kg.pd(i).len()).sum();
        let events = self.pick(5_000, 150_000);
        let hops = (events / (edges * TOKENS).max(1)).max(1) as u32;
        let mut peak = 0usize;
        let ns = ns_per_op(5, || {
            let mut sim = flood_sim(kg, hops, seed, &plane);
            let mut steps = 0u64;
            while sim.step() {
                steps += 1;
                peak = peak.max(sim.pending_events());
            }
            black_box(sim.report().messages_delivered);
            steps
        });
        (ns, peak)
    }

    /// The simulator kernels; returns `sim.ns_per_event` per size.
    fn sim_kernels(&mut self, systems: &[(usize, System)], seed: u64) -> Vec<(usize, f64)> {
        let mut per_event = Vec::new();
        for (n, sys) in systems {
            let (ns, peak) = self.flood_kernel(&sys.kg, seed, Plane::Zero);
            self.rows.set(&format!("sim.ns_per_event.n{n}"), ns);
            per_event.push((*n, ns));
            if *n == KERNEL_SIZES[KERNEL_SIZES.len() - 1] {
                self.rows.set("sim.queue_peak", peak as f64);
                let reps = self.pick(10, 300) as u64;
                let new = ns_per_op(5, || {
                    for _ in 0..reps {
                        black_box(flood_sim(&sys.kg, 1, seed, &Plane::Zero).n());
                    }
                    reps
                });
                self.rows.set("sim.new_us", new / 1e3);
            }
        }
        let small = &systems[0].1.kg;
        let (faults, _) = self.flood_kernel(small, seed, Plane::Faults);
        self.rows.set("sim.ns_per_event_faultplan", faults);
        let (churn, _) = self.flood_kernel(small, seed, Plane::Churn);
        self.rows.set("sim.ns_per_event_churn", churn);
        per_event
    }

    /// Parsing a workload file, and rendering a 100-run campaign report.
    fn harness_kernels(&mut self, base_seed: u64) -> Result<(), String> {
        let text = workload::text("adversity").expect("a frozen workload");
        let reps = self.pick(2, 30) as u64;
        let parse = ns_per_op(5, || {
            for _ in 0..reps {
                black_box(campaign_from_str(black_box(text)).is_ok());
            }
            reps
        });
        self.rows.set("harness.parse_us", parse / 1e3);

        let figs = workload::load("fig_small")?;
        let offsets = figs.pool_offsets(base_seed);
        let wanted = 100usize;
        let rendered = self.pick(16, wanted);
        let mut runs = Vec::with_capacity(rendered);
        'fill: for k in 0.. {
            for (e, &off) in figs.entries.iter().zip(&offsets) {
                if runs.len() == rendered {
                    break 'fill;
                }
                let record = run_one(&e.scenario, e.run_seed(off, 0, k), self.registry);
                self.tally.record(&record);
                runs.push(record);
            }
        }
        let report = CampaignReport {
            name: "probe".into(),
            threads: 1,
            runs,
            wall_micros: 0,
        };
        let render = ns_per_op(5, || {
            black_box(report.to_json().pretty().len());
            1
        });
        // A smoke run renders fewer records; scale to the 100 the row names.
        let scale = wanted as f64 / rendered as f64;
        self.rows
            .set("harness.report_json_ms", render * scale / 1e6);
        Ok(())
    }

    /// The SCP ladder over the `scale_n` scenarios: per size, nanoseconds
    /// per SCP-phase delivery and sink-detector messages; over all sizes,
    /// `GET_SINK` over reachable broadcast relative to direct sends.
    /// Returns `scp.ns_per_delivery` per size.
    fn scp_ladder(
        &mut self,
        scale: &Workload,
        offsets: &[u64],
    ) -> Result<Vec<(usize, f64)>, String> {
        let mut per_delivery = Vec::new();
        let (mut direct_total, mut rrb_total) = (0u64, 0u64);
        for n in self.rungs(&SCP_SIZES) {
            let (idx, entry) = indexed(scale, &format!("n{n}"))?;
            // Small systems are cheap and noisy: give them more seeds.
            let seeds = self.pick(1, if n <= 12 { 4 } else { 1 }) as u64;
            let (mut scp_ns, mut delivered, mut sd_msgs) = (0u64, 0u64, 0u64);
            for k in 0..seeds {
                let seed = entry.run_seed(offsets[idx], 0, k);
                let d = self.run_decomposed(entry, seed)?;
                scp_ns += self.tracer.child_nanos(d.root, "scp.phase").unwrap_or(0);
                delivered += d.scp_messages_delivered;
                sd_msgs += d.sd_messages_sent;

                let (kg, faulty) = instance(entry, seed)?;
                let config = EndToEndConfig {
                    seed,
                    get_sink_mode: GetSinkMode::ReachableBroadcast,
                    ..EndToEndConfig::default()
                };
                let (_, rrb) =
                    consensus::run_sink_detection(&kg, entry.scenario.f, &faulty, &config);
                rrb_total += rrb.messages_sent;
            }
            direct_total += sd_msgs;
            let ns = scp_ns as f64 / delivered.max(1) as f64;
            self.rows.set(&format!("scp.ns_per_delivery.n{n}"), ns);
            self.rows
                .set(&format!("core.sd_msgs.n{n}"), sd_msgs as f64 / seeds as f64);
            per_delivery.push((n, ns));
        }
        self.rows.set(
            "core.sd_msgs_rrb_over_direct",
            rrb_total as f64 / direct_total.max(1) as f64,
        );
        Ok(per_delivery)
    }

    /// The BFT-CUP ladder over the `bftcup_scale` scenarios: per size, the
    /// protocol's wall time and messages per decision, and the premise
    /// oracle's k-OSR flow check on the same graph.
    fn bft_ladder(&mut self, bft: &Workload, offsets: &[u64]) -> Result<(), String> {
        for n in self.rungs(&BFT_SIZES) {
            let (idx, entry) = indexed(bft, &format!("bft-n{n}"))?;
            let seeds = self.pick(1, (256 / n).clamp(1, 16)) as u64;
            let (mut cup_ns, mut msgs, mut decisions) = (0u64, 0u64, 0u64);
            let mut premise_ns = Vec::new();
            for k in 0..seeds {
                let seed = entry.run_seed(offsets[idx], 0, k);
                let d = self.run_decomposed(entry, seed)?;
                cup_ns += self.tracer.child_nanos(d.root, "cup.phase").unwrap_or(0);
                msgs += d.messages_sent;
                decisions += u64::from(d.invariants.termination);

                let (kg, faulty) = instance(entry, seed)?;
                let t = Instant::now();
                black_box(kosr::satisfies_theorem1(
                    kg.graph(),
                    entry.scenario.f,
                    &faulty,
                ));
                premise_ns.push(t.elapsed().as_nanos() as f64);
            }
            self.rows.set(
                &format!("cup.bft_execute_ms.n{n}"),
                cup_ns as f64 / seeds as f64 / 1e6,
            );
            self.rows.set(
                &format!("cup.bft_msgs_per_decision.n{n}"),
                msgs as f64 / decisions.max(1) as f64,
            );
            self.rows.set(
                &format!("graph.premise_check_ms.n{n}"),
                stats::median(&premise_ns) / 1e6,
            );
        }
        Ok(())
    }
}

/// Runs every probe and fills its rows.
pub fn run(run: &mut Run, tracer: &mut Tracer) -> Result<(), String> {
    let base_seed = run.seed;
    let started = Instant::now();
    let scale = workload::load("scale_n")?;
    let scale_offsets = scale.pool_offsets(base_seed);
    let bft = workload::load("bftcup_scale")?;
    let bft_offsets = bft.pool_offsets(base_seed);

    let mut systems = Vec::new();
    for n in KERNEL_SIZES {
        let (idx, entry) = indexed(&scale, &format!("n{n}"))?;
        let seed = entry.run_seed(scale_offsets[idx], 0, 0);
        systems.push((n, system(entry, seed)?));
    }

    let mut probe = Probe {
        registry: &run.registry,
        smoke: run.smoke,
        tracer,
        next_run: 1 << 32,
        rows: &mut run.rows,
        tally: &mut run.tally,
    };
    let kernels = probe.tracer.open("probe.kernels", None, probe.next_run);
    probe.next_run += 1;
    for (n, sys) in &systems {
        probe.fbqs_kernels(sys, *n, base_seed);
        probe.voting_kernel(sys, *n);
    }
    probe.sink_core_kernel(&systems[systems.len() - 1].1);
    let sim_ns = probe.sim_kernels(&systems, base_seed);
    probe.harness_kernels(base_seed)?;
    probe.tracer.close(kernels);

    let scp_ns = probe.scp_ladder(&scale, &scale_offsets)?;
    probe.bft_ladder(&bft, &bft_offsets)?;
    // An SCP delivery minus the simulator's own share of it at that size.
    for (n, sim) in sim_ns {
        if let Some((_, scp)) = scp_ns.iter().find(|(m, _)| *m == n) {
            probe
                .rows
                .set(&format!("scp.self_ns_per_delivery.n{n}"), scp - sim);
        }
    }
    run.notes.push(format!(
        "layer probes (kernels at n = 8 and 24, scp ladder n = 8..24, bft-cup ladder \
         n = 8..128) took {:.2} s",
        started.elapsed().as_secs_f64()
    ));
    Ok(())
}
