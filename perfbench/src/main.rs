//! The repository benchmark. See `README.md` for the workloads, the
//! metrics and which layer each metric should move.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_ce_feddrl --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, with the
//! end-to-end metrics under `--trace 0` and the per-layer metrics under
//! `--trace 1`.

mod trace;
mod workloads;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use feddrl_repro::prelude::{Message, Rng64, UpdateMsg};

use trace::{durations_ms, self_ms, totals, write_spans, Span, Tracer};
use workloads::{
    buffered_unit, net_reference_digest, net_unit, paper_threads, paper_unit, Unit,
    BUFFERED_ROUNDS, NET_ROUNDS, PAPER_ROUNDS,
};

/// Set-ups run (with one round each) before the timed units: they warm
/// the allocator and caches and give `setup_s` enough samples for a
/// median next to the one set-up each timed unit performs.
const WARM_SETUPS: usize = 4;

/// `paper_ce_feddrl` federations per untraced run. Rounds to the target
/// vary by a fifth between single training seeds; the mean over eight
/// seeds derived from `--seed` is steady enough to gate on.
const PAPER_FEDERATIONS: usize = 8;

/// Consecutive rounds per block for `rounds_per_s` and `round_ms_p90`.
const BLOCK_ROUNDS: usize = 100;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    PaperCeFeddrl,
    ServerBufferedFedadam,
    NetLoopbackBarrier,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_ce_feddrl" => Some(Workload::PaperCeFeddrl),
            "server_buffered_fedadam" => Some(Workload::ServerBufferedFedadam),
            "net_loopback_barrier" => Some(Workload::NetLoopbackBarrier),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperCeFeddrl => "paper_ce_feddrl",
            Workload::ServerBufferedFedadam => "server_buffered_fedadam",
            Workload::NetLoopbackBarrier => "net_loopback_barrier",
        }
    }

    fn rounds(self) -> usize {
        match self {
            Workload::PaperCeFeddrl => PAPER_ROUNDS,
            Workload::ServerBufferedFedadam => BUFFERED_ROUNDS,
            Workload::NetLoopbackBarrier => NET_ROUNDS,
        }
    }

    /// Federations an untraced run must complete, whatever the budget.
    fn min_units(self) -> usize {
        match self {
            Workload::PaperCeFeddrl => PAPER_FEDERATIONS,
            _ => 1,
        }
    }

    /// Federation `index` of a run: `paper_ce_feddrl` trains each one
    /// from its own seed derived from `seed`; the stub workloads repeat
    /// the same federation.
    fn unit(self, seed: u64, index: usize, rounds: usize, t: Option<&Arc<Tracer>>) -> Unit {
        let mut unit = match self {
            Workload::PaperCeFeddrl => {
                let fl_seed = Rng64::new(seed).derive(index as u64).next_u64();
                paper_unit(fl_seed, rounds, t)
            }
            Workload::ServerBufferedFedadam => buffered_unit(seed, rounds, t),
            Workload::NetLoopbackBarrier => net_unit(seed, rounds, t),
        };
        unit.index = index;
        unit
    }

    /// Names of the layers that own the train callback's time and the
    /// executor's self time, for the dominant-layer line.
    fn layer_names(self) -> (&'static str, &'static str) {
        match self {
            Workload::PaperCeFeddrl => ("client", "exec"),
            Workload::ServerBufferedFedadam => ("stub", "exec"),
            Workload::NetLoopbackBarrier => ("stub", "net"),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Nearest-rank percentile (`pct` in 0..=100); 0 for no samples.
fn percentile(v: &[f64], pct: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line's accounting plus the metrics it carries.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Run timed units (one set-up plus one full federation each) until their
/// federations have taken `budget_s` seconds and at least `min_units` ran.
fn run_units(
    wl: Workload,
    seed: u64,
    budget_s: f64,
    min_units: usize,
    t: Option<&Arc<Tracer>>,
) -> Vec<Unit> {
    let mut units = Vec::new();
    let mut spent = 0.0;
    while units.len() < min_units.max(1) || spent < budget_s {
        let unit = wl.unit(seed, units.len(), wl.rounds(), t);
        spent += unit.wall_s();
        units.push(unit);
    }
    units
}

/// Output checks across units: each unit's own checks, identical digests
/// for units of the same index (the run is deterministic, traced or not),
/// and for the network workload the in-process reference digest. Returns
/// (correct, attempted, failed); a unit whose output is wrong counts all
/// its operations failed.
fn check(units: &[Unit], reference: Option<u64>, notes: &mut Vec<String>) -> (bool, u64, u64) {
    let mut first: HashMap<usize, u64> = HashMap::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for (i, u) in units.iter().enumerate() {
        let expected = reference.unwrap_or(*first.entry(u.index).or_insert(u.digest));
        attempted += u.attempted;
        let mut unit_failed = u.failed;
        for p in &u.problems {
            notes.push(format!("unit {i}: {p}"));
            correct = false;
        }
        if u.digest != expected {
            notes.push(format!(
                "unit {i}: digest {:016x} differs from {:016x}",
                u.digest, expected
            ));
            correct = false;
            unit_failed = u.attempted;
        }
        failed += unit_failed.min(u.attempted);
    }
    (correct && failed == 0, attempted, failed)
}

fn end_to_end(
    wl: Workload,
    units: &[Unit],
    setups: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    let round_ms: Vec<f64> = units
        .iter()
        .flat_map(|u| u.round_ms.iter().copied())
        .collect();
    // The rate and the tail are taken per block of consecutive rounds (the
    // p90 of a block has ten samples beyond it). A shared host's
    // interference only ever adds time and comes in phases of tens of
    // seconds, so the run reports the quartile of its blocks on the fast
    // side: it filters those phases the way a best-of-N timing does, and
    // a slower program still moves every block.
    let mut blocks: Vec<&[f64]> = round_ms.chunks_exact(BLOCK_ROUNDS).collect();
    if blocks.is_empty() {
        blocks.push(&round_ms);
    }
    let block_rate: Vec<f64> = blocks
        .iter()
        .map(|b| b.len() as f64 / (b.iter().sum::<f64>() / 1e3))
        .collect();
    let block_p90: Vec<f64> = blocks.iter().map(|b| percentile(b, 90.0)).collect();
    // The deterministic figures come from the fixed set of federations
    // every run completes. Workloads without an accuracy target (stub
    // training) have their fixed round budget as the target.
    let fixed = &units[..wl.min_units()];
    let mean = |f: &dyn Fn(&Unit) -> f64| fixed.iter().map(f).sum::<f64>() / fixed.len() as f64;
    let (rounds_to_target, time_to_target) = match wl {
        Workload::PaperCeFeddrl => (
            mean(&|u| u.target.map_or(u.round_ms.len(), |(r, _)| r) as f64),
            mean(&|u| u.target.map_or(u.wall_s(), |(_, s)| s)),
        ),
        _ => (
            wl.rounds() as f64,
            median(&units.iter().map(Unit::wall_s).collect::<Vec<_>>()),
        ),
    };
    vec![
        ("rounds_per_s", percentile(&block_rate, 75.0), "1/s"),
        ("round_ms_p50", median(&round_ms), "ms"),
        ("round_ms_p90", percentile(&block_p90, 25.0), "ms"),
        ("time_to_target_s", time_to_target, "s"),
        ("rounds_to_target", rounds_to_target, "count"),
        ("accuracy_final", mean(&|u| u.accuracy_final), "share"),
        ("setup_s", median(setups), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Sample counts, the first unit's output digest (so later changes can
/// show bit-identity on these inputs) and each unit's rate.
fn samples_note(units: &[Unit], setups: usize) -> String {
    let rounds: usize = units.iter().map(|u| u.round_ms.len()).sum();
    let unit_rps: Vec<String> = units
        .iter()
        .map(|u| format!("{:.2}", u.round_ms.len() as f64 / u.wall_s()))
        .collect();
    format!(
        "samples: {} units, {rounds} rounds, {setups} set-ups; digest {:016x}; rounds/s per unit: {}",
        units.len(),
        units[0].digest,
        unit_rps.join(" ")
    )
}

/// Write each unit's step wall times (ms), one unit per line.
fn write_round_times(path: &std::path::Path, units: &[Unit]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let lines: Vec<String> = units
        .iter()
        .map(|u| {
            let v: Vec<String> = u.round_ms.iter().map(|ms| format!("{ms:.4}")).collect();
            v.join(" ")
        })
        .collect();
    std::fs::write(path, lines.join("\n") + "\n")
}

/// Median wall time per call of `f` over `reps` calls, in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        v.push(start.elapsed().as_secs_f64() * 1e3);
    }
    median(&v)
}

/// The public wire codec timed on this workload's exact frames: an
/// `Update` and a dense `ModelPublish` carrying the final global model.
/// Returns (encode update, decode update, encode publish) in ms, the
/// update frame's size in bytes, and whether decoding round-tripped.
fn time_codec(params: &[f32]) -> (f64, f64, f64, usize, bool) {
    let update = Message::Update(UpdateMsg {
        client_id: 1,
        round: 1,
        model_version: 1,
        staleness: 0,
        n_samples: 100,
        loss_before: 1.0,
        loss_after: 0.5,
        weights: params.to_vec(),
    });
    let publish = Message::ModelPublish {
        version: 1,
        weights: params.to_vec(),
    };
    let frame = update.encode();
    let reps = (50_000_000 / frame.len().max(1)).clamp(30, 2000);
    let enc = time_ms(reps, || {
        std::hint::black_box(std::hint::black_box(&update).encode());
    });
    let dec = time_ms(reps, || {
        std::hint::black_box(Message::decode(std::hint::black_box(&frame)).ok());
    });
    let enc_pub = time_ms(reps, || {
        std::hint::black_box(std::hint::black_box(&publish).encode());
    });
    let round_trip =
        matches!(Message::decode(&frame), Ok((m, n)) if m == update && n == frame.len());
    (enc, dec, enc_pub, frame.len(), round_trip)
}

/// Per-layer metrics from a traced phase's spans and units, and whether
/// the codec round-tripped the workload's frame.
fn per_layer(
    wl: Workload,
    t: &Tracer,
    spans: &[Span],
    traced: &[Unit],
    untraced_rps: f64,
    failed_share: f64,
    notes: &mut Vec<String>,
) -> (Vec<(&'static str, f64, &'static str)>, bool) {
    let p50 = |name: &str| median(&durations_ms(spans, name));
    let rate = |name: &str| {
        let (secs, work) = totals(spans, name);
        if secs > 0.0 {
            work as f64 / secs / 1e9
        } else {
            0.0
        }
    };
    let is_net = wl == Workload::NetLoopbackBarrier;
    let last = traced.last().expect("at least one traced unit");
    let rounds: usize = traced.iter().map(|u| u.round_ms.len()).sum();
    let traced_rps = rounds as f64 / traced.iter().map(Unit::wall_s).sum::<f64>();

    let (local_s, _) = totals(spans, "client.local_round");
    let (execute_s, _) = totals(spans, "exec.execute");
    let parallel_efficiency = if local_s > 0.0 {
        local_s / (paper_threads() as f64 * execute_s)
    } else {
        0.0
    };
    let strategy = durations_ms(spans, "strategy");
    let exec_self = self_ms(spans, "exec.execute");

    // Remote workers never call the session's train callback, so the
    // network workload counts its dispatches from the transport telemetry.
    let nets: Vec<_> = traced.iter().filter_map(|u| u.net.as_ref()).collect();
    let (mut dispatched, aggregated) = t.dispatch_counts();
    if is_net {
        dispatched = nets.iter().map(|n| n.dispatched).sum();
    }
    let rtt: Vec<f64> = nets.iter().flat_map(|n| n.rtt_ms.iter().copied()).collect();
    let worker = p50("net.worker_train");
    let net_only = |v: f64| if is_net { v } else { 0.0 };

    let (enc, dec, enc_pub, frame_bytes, round_trip) = time_codec(&last.params);
    if !round_trip {
        notes.push("the Update frame did not decode back to itself".into());
    }

    // Where the traced rounds' time went, by layer.
    let round_s = totals(spans, "round").0;
    let self_s = |name: &str| self_ms(spans, name).iter().sum::<f64>() / 1e3;
    let exec_self_s = self_s("exec.execute");
    let (train_layer, exec_layer) = wl.layer_names();
    let mut shares = [
        ("session", totals(spans, "session.select").0),
        (train_layer, execute_s - exec_self_s),
        (exec_layer, exec_self_s + totals(spans, "exec.publish").0),
        ("strategy", totals(spans, "strategy").0),
        ("aggregate", totals(spans, "aggregate").0),
        ("eval", totals(spans, "eval").0),
        ("trace", totals(spans, "trace.observer").0),
    ];
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let listed: Vec<String> = shares
        .iter()
        .map(|(n, s)| format!("{n} {:.3}", s / round_s))
        .collect();
    notes.push(format!(
        "layer shares of traced round time: {}; dominant layer: {}",
        listed.join(", "),
        shares[0].0
    ));

    let metrics = vec![
        ("client.local_round_ms_p50", p50("client.local_round"), "ms"),
        ("client.gflops", rate("client.local_round"), "GFLOP/s"),
        ("client.parallel_efficiency", parallel_efficiency, "share"),
        ("strategy.ms_p50", median(&strategy), "ms"),
        ("strategy.ms_p90", percentile(&strategy, 90.0), "ms"),
        ("strategy.replay_len", last.replay_len as f64, "count"),
        ("strategy.ddpg_updates", last.ddpg_updates as f64, "count"),
        ("aggregate.ms_p50", p50("aggregate"), "ms"),
        ("aggregate.gbps", rate("aggregate"), "GB/s"),
        ("eval.ms_p50", p50("eval"), "ms"),
        ("session.select_ms_p50", p50("session.select"), "ms"),
        ("exec.execute_ms_p50", p50("exec.execute"), "ms"),
        ("exec.self_ms_p50", median(&exec_self), "ms"),
        (
            "exec.aggregated_share",
            if dispatched > 0 {
                aggregated as f64 / dispatched as f64
            } else {
                0.0
            },
            "share",
        ),
        ("exec.mean_staleness", t.mean_staleness(), "count"),
        ("net.publish_ms_p50", net_only(p50("exec.publish")), "ms"),
        ("net.execute_ms_p50", net_only(p50("exec.execute")), "ms"),
        ("net.rtt_ms_p50", median(&rtt), "ms"),
        ("net.rtt_ms_p90", percentile(&rtt, 90.0), "ms"),
        ("net.worker_train_ms_p50", worker, "ms"),
        (
            "net.transport_ms_p50",
            net_only(median(&rtt) - worker),
            "ms",
        ),
        (
            "net.publish_bytes_per_round",
            nets.iter().map(|n| n.publish_bytes).sum::<u64>() as f64 / rounds as f64,
            "B",
        ),
        (
            "net.failed_dispatches",
            nets.iter().map(|n| n.failed_dispatches).sum::<u64>() as f64,
            "count",
        ),
        ("wire.encode_update_ms", enc, "ms"),
        ("wire.decode_update_ms", dec, "ms"),
        ("wire.encode_publish_ms", enc_pub, "ms"),
        (
            "wire.encode_gbps",
            frame_bytes as f64 / (enc / 1e3) / 1e9,
            "GB/s",
        ),
        ("stub.ms_p50", p50("stub"), "ms"),
        (
            "trace.overhead_share",
            1.0 - traced_rps / untraced_rps,
            "share",
        ),
        (
            "trace.unattributed_share",
            self_s("round") / round_s,
            "share",
        ),
        ("failed_share", failed_share, "share"),
    ];
    (metrics, round_trip)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_ce_feddrl|server_buffered_fedadam|net_loopback_barrier> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let mut notes = Vec::new();

    let mut setups: Vec<f64> = (0..WARM_SETUPS)
        .map(|_| wl.unit(args.seed, 0, 1, None).setup_s)
        .collect();
    // The in-process reference is computed outside every timed window.
    let reference = (wl == Workload::NetLoopbackBarrier).then(|| net_reference_digest(args.seed));

    let report = if args.trace {
        // Half the budget untraced, half traced: the two rates give the
        // tracing overhead, and equal digests prove the wrappers and the
        // benchmark's train callback leave the run unchanged.
        let untraced = run_units(wl, args.seed, args.seconds / 2.0, 1, None);
        let tracer = Tracer::new();
        let traced = run_units(wl, args.seed, args.seconds / 2.0, 1, Some(&tracer));
        let untraced_rps = untraced.iter().map(|u| u.round_ms.len()).sum::<usize>() as f64
            / untraced.iter().map(Unit::wall_s).sum::<f64>();
        let mut all = untraced;
        let n_untraced = all.len();
        all.extend(traced);
        let (correct, attempted, failed) = check(&all, reference, &mut notes);
        setups.extend(all.iter().map(|u| u.setup_s));
        notes.push(samples_note(&all, setups.len()));
        let spans = tracer.take_spans();
        let (metrics, round_trip) = per_layer(
            wl,
            &tracer,
            &spans,
            &all[n_untraced..],
            untraced_rps,
            failed as f64 / attempted as f64,
            &mut notes,
        );
        let path = PathBuf::from(format!(
            ".bench_out/trace-{}-seed{}.jsonl",
            wl.name(),
            args.seed
        ));
        match write_spans(&path, &spans) {
            Ok(()) => notes.push(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => notes.push(format!("could not write spans to {}: {e}", path.display())),
        }
        Report {
            correct: correct && round_trip,
            attempted,
            failed,
            metrics,
        }
    } else {
        let units = run_units(wl, args.seed, args.seconds, wl.min_units(), None);
        let (correct, attempted, failed) = check(&units, reference, &mut notes);
        setups.extend(units.iter().map(|u| u.setup_s));
        let path = PathBuf::from(format!(
            ".bench_out/rounds-{}-seed{}.txt",
            wl.name(),
            args.seed
        ));
        if let Err(e) = write_round_times(&path, &units) {
            notes.push(format!(
                "could not write round times to {}: {e}",
                path.display()
            ));
        }
        notes.push(samples_note(&units, setups.len()));
        Report {
            correct,
            attempted,
            failed,
            metrics: end_to_end(wl, &units, &setups),
        }
    };
    for n in &notes {
        println!("{n}");
    }
    report.print();
    ExitCode::SUCCESS
}
