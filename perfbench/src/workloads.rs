//! The three workloads. Each `*_unit` function is one complete set-up
//! (timed as a `setup_s` sample) followed by one federation driven round
//! by round through `Session::step`.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use feddrl_repro::feddrl_nn::parallel::{max_threads, par_map};
use feddrl_repro::prelude::*;

use crate::trace::{TraceObserver, TracedExecutor, TracedStrategy, Tracer};

/// Test accuracy `paper_ce_feddrl` must reach.
const TARGET_ACCURACY: f32 = 0.95;
/// Round cap of one `paper_ce_feddrl` federation.
pub const PAPER_ROUNDS: usize = 80;
/// A `paper_ce_feddrl` federation stops at the first round that has
/// reached the target and is at least this long. Most seeds reach the
/// target sooner, so most federations run exactly these rounds and the
/// round-time figures do not depend on how fast a seed converged.
const PAPER_MIN_ROUNDS: usize = 40;
/// Rounds of one `server_buffered_fedadam` federation.
pub const BUFFERED_ROUNDS: usize = 300;
/// Rounds of one `net_loopback_barrier` federation.
pub const NET_ROUNDS: usize = 600;

/// The quickstart's data draw, used by every workload: the data sets are
/// fixed, and the seed varies the federation run on them. For
/// `paper_ce_feddrl` the CE(0.6) partition is the quickstart's too.
const DATA_SEED: u64 = 42;
const PAPER_PARTITION_SEED: u64 = 7;
/// Salts separating the benchmark's seed streams.
const PARTITION_SALT: u64 = 0x009A_2717;
const FLEET_SALT: u64 = 0x000F_1EE7;
const STUB_SALT: u64 = 0x57AB;

/// What one unit measured and produced.
pub struct Unit {
    /// Position in the run's sequence of federations (see `main`).
    pub index: usize,
    pub setup_s: f64,
    /// Wall time of every `Session::step`, in order.
    pub round_ms: Vec<f64>,
    /// Rounds and wall seconds from the first step until test accuracy
    /// first reached the target, if it did.
    pub target: Option<(usize, f64)>,
    /// Mean test accuracy over the last half of the rounds run.
    pub accuracy_final: f64,
    /// Digest of the scrubbed history and the final global parameters.
    pub digest: u64,
    /// Operations attempted and failed (rounds, or network dispatches).
    pub attempted: u64,
    pub failed: u64,
    /// Why an output check failed; empty when every check passed.
    pub problems: Vec<String>,
    pub params: Vec<f32>,
    /// Layer counters only some workloads have.
    pub replay_len: usize,
    pub ddpg_updates: usize,
    pub net: Option<NetCounters>,
}

impl Unit {
    pub fn wall_s(&self) -> f64 {
        self.round_ms.iter().sum::<f64>() / 1e3
    }
}

pub struct NetCounters {
    pub rtt_ms: Vec<f64>,
    pub publish_bytes: u64,
    pub dispatched: u64,
    pub failed_dispatches: u64,
}

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Digest of a history with its two wall-clock fields zeroed (they are
/// measurements, not outputs) and of the final parameters' bit patterns.
/// `Debug` prints every float in its exact round-trip form.
fn digest(history: &RunHistory, params: &[f32]) -> u64 {
    let mut scrubbed = history.clone();
    for r in &mut scrubbed.records {
        r.strategy_micros = 0;
        r.aggregate_micros = 0;
    }
    let h = fnv(format!("{scrubbed:?}").as_bytes(), 0xcbf2_9ce4_8422_2325);
    params
        .iter()
        .fold(h, |h, p| fnv(&p.to_bits().to_le_bytes(), h))
}

/// `Σ in·out` over the dense layers of an MLP: multiply-adds per sample
/// of one forward pass.
fn mlp_macs(dims: &[usize]) -> u64 {
    dims.windows(2).map(|w| (w[0] * w[1]) as u64).sum()
}

/// FLOPs of one local round on `n` samples: a forward pass for
/// `loss_before`, `epochs` × (forward + backward ≈ 3 forward passes), and
/// a forward pass for `loss_after`; one forward pass is `2·MACs` per
/// sample. SGD's own `O(P)` steps are left out.
fn local_round_flops(macs: u64, n: usize, epochs: usize) -> u64 {
    2 * macs * n as u64 * (2 + 3 * epochs as u64)
}

/// The fixed pattern the stub pulls weights toward: `±(0.01 … 0.05)`,
/// never zero, so no weight can decay into the subnormal range.
fn stub_pattern(p: usize) -> Vec<f32> {
    (0..p)
        .map(|j| {
            let frac = (j as f64 * 0.618_033_988_749_895).fract() as f32;
            let mag = 0.01 + 0.04 * frac;
            if j % 2 == 0 {
                mag
            } else {
                -mag
            }
        })
        .collect()
}

/// The deterministic stand-in for local training used where a workload
/// does no SGD: the affine map `w ↦ ½·w + ½·c·pattern`, with
/// `c ∈ [0.5, 1.5)` drawn from `(seed, round, client)`. O(P), bounded,
/// and always changing (`c` moves every round), so the global model stays
/// in the normal float range however long the run.
fn stub_update(
    seed: u64,
    round: u64,
    client_id: usize,
    n_samples: usize,
    global: &[f32],
    pattern: &[f32],
) -> ClientUpdate {
    let c = 0.5
        + Rng64::new(seed ^ STUB_SALT)
            .derive(round)
            .derive(client_id as u64)
            .next_f32();
    let half_c = 0.5 * c;
    ClientUpdate {
        client_id,
        weights: global
            .iter()
            .zip(pattern)
            .map(|(&w, &p)| 0.5 * w + half_c * p)
            .collect(),
        n_samples,
        loss_before: c,
        loss_after: half_c,
        staleness: 0,
        mask: None,
    }
}

/// Run `stub`, as a `stub` span under `parent` when traced.
fn traced_stub(
    t: Option<&Tracer>,
    parent: u64,
    round: u64,
    stub: impl FnOnce() -> ClientUpdate,
) -> ClientUpdate {
    let Some(t) = t else {
        return stub();
    };
    let start = t.now();
    let u = stub();
    t.record("stub", parent, round, start, t.now(), 0);
    u
}

/// Outcome of driving a session to its end.
struct Drive {
    round_ms: Vec<f64>,
    target: Option<(usize, f64)>,
    error: Option<String>,
}

/// Step `session` to completion, or until test accuracy has reached
/// `target` and `min_rounds` rounds have run, timing each
/// `Session::step` call.
fn drive(
    session: &mut Session<'_>,
    t: Option<&Tracer>,
    target: Option<f32>,
    min_rounds: usize,
) -> Drive {
    let mut d = Drive {
        round_ms: Vec::new(),
        target: None,
        error: None,
    };
    let mut elapsed = 0.0;
    while !session.is_finished() {
        let token = t.map(|t| t.begin_round(session.rounds_completed()));
        let start = Instant::now();
        let step = session.step();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(token)) = (t, token) {
            t.end_round(token);
        }
        elapsed += ms / 1e3;
        d.round_ms.push(ms);
        match step {
            Ok(Some(record)) => {
                if d.target.is_none() && target.is_some_and(|a| record.test_accuracy >= a) {
                    d.target = Some((record.round + 1, elapsed));
                }
                if d.target.is_some() && record.round + 1 >= min_rounds {
                    break;
                }
            }
            Ok(None) => break,
            Err(e) => {
                d.error = Some(e.to_string());
                break;
            }
        }
    }
    d
}

/// Finish a unit from a driven session that should have run `rounds`
/// rounds (at most `rounds`, when `early_stop`).
fn finish(session: Session<'_>, d: Drive, setup_s: f64, rounds: usize, early_stop: bool) -> Unit {
    let params = session.global_params();
    let history = session.into_history();
    let mut problems: Vec<String> = d.error.into_iter().collect();
    let ran = history.records.len();
    if ran > rounds || (!early_stop && ran < rounds) {
        problems.push(format!("ran {} of {rounds} rounds", history.records.len()));
    }
    if !params.iter().all(|w| w.is_finite()) {
        problems.push("final global model is not finite".into());
    }
    let failed_rounds = history
        .records
        .iter()
        .filter(|r| !r.test_loss.is_finite())
        .count();
    if failed_rounds > 0 {
        problems.push(format!(
            "{failed_rounds} rounds with a non-finite test loss"
        ));
    }
    Unit {
        index: 0,
        setup_s,
        target: d.target,
        accuracy_final: {
            let tail = &history.records[ran / 2..];
            tail.iter().map(|r| r.test_accuracy as f64).sum::<f64>() / tail.len().max(1) as f64
        },
        digest: digest(&history, &params),
        attempted: ran as u64,
        failed: failed_rounds as u64,
        problems,
        round_ms: d.round_ms,
        params,
        replay_len: 0,
        ddpg_updates: 0,
        net: None,
    }
}

/// Install the round executor, wrapped with the tracing hooks when
/// traced. `agg_bytes` gives the bytes one aggregation of `k` updates
/// must move.
fn with_executor<'a>(
    builder: SessionBuilder<'a>,
    t: Option<&Arc<Tracer>>,
    executor: Box<dyn RoundExecutor>,
    agg_bytes: impl Fn(usize) -> u64 + Send + 'static,
) -> SessionBuilder<'a> {
    match t {
        None => builder.executor_instance(executor),
        Some(t) => builder
            .executor_instance(Box::new(TracedExecutor::new(executor, Arc::clone(t))))
            .observer(Box::new(TraceObserver::new(
                Arc::clone(t),
                Box::new(agg_bytes),
            ))),
    }
}

// ---------------------------------------------------------------------
// paper_ce_feddrl
// ---------------------------------------------------------------------

struct PaperEnv {
    train: Dataset,
    test: Dataset,
    partition: Partition,
    spec: ModelSpec,
    cfg: FlConfig,
}

fn paper_env(seed: u64, rounds: usize) -> PaperEnv {
    let (train, test) = SynthSpec::mnist_like().generate(DATA_SEED);
    let partition = PartitionMethod::ce(0.6)
        .partition(&train, 10, &mut Rng64::new(PAPER_PARTITION_SEED))
        .expect("CE(0.6) partition of the mnist-like set");
    let spec = ModelSpec::Mlp {
        in_dim: train.feature_dim(),
        hidden: vec![64],
        out_dim: train.num_classes(),
    };
    let cfg = FlConfig {
        rounds,
        participants: 10,
        local: LocalTrainConfig {
            epochs: 5,
            batch_size: 10,
            lr: 0.01,
            ..Default::default()
        },
        eval_batch: 256,
        seed,
        log_every: 0,
        selection: Selection::Uniform,
        executor: ExecutorConfig::Ideal,
        server_opt: ServerOptConfig::Plain,
    };
    PaperEnv {
        train,
        test,
        partition,
        spec,
        cfg,
    }
}

/// FedDRL on the paper's CE(0.6) cell, run until test accuracy has
/// reached the target (and for at least `PAPER_MIN_ROUNDS`). Untraced,
/// the session runs its own training path; traced, the benchmark's
/// `train_fn` re-derives the session's per-client computation so each
/// local round gets a span.
pub fn paper_unit(seed: u64, rounds: usize, t: Option<&Arc<Tracer>>) -> Unit {
    let start = Instant::now();
    let env = paper_env(seed, rounds);
    let mut feddrl = FedDrl::new(env.cfg.participants, &FedDrlConfig::default());
    let p = env.spec.build(0).param_count() as u64;
    let macs = mlp_macs(&[env.train.feature_dim(), 64, env.train.num_classes()]);
    let epochs = env.cfg.local.epochs;
    let mut wrapped;
    let strategy: &mut dyn Strategy = match t {
        Some(t) => {
            wrapped = TracedStrategy::new(&mut feddrl, Arc::clone(t));
            &mut wrapped
        }
        None => &mut feddrl,
    };
    let builder = SessionBuilder::new(&env.spec, &env.train, &env.test, &env.partition, strategy)
        .config(&env.cfg)
        .dataset_name("mnist-like");
    let builder = with_executor(
        builder,
        t,
        env.cfg.executor.build(10, p as usize, 10, seed),
        move |k| 4 * p * (k as u64 + 1),
    );
    let builder = match t {
        None => builder,
        Some(t) => {
            let t = Arc::clone(t);
            let (spec, train, partition) = (&env.spec, &env.train, &env.partition);
            let local = env.cfg.local.clone();
            builder.train_fn(Box::new(
                move |ctx: &TrainContext<'_>, dispatches: &[Dispatch]| {
                    par_map(dispatches, |_, d| {
                        assert!(
                            d.keep_ratio >= 1.0,
                            "the ideal executor dispatches full models"
                        );
                        let start = t.now();
                        let mut model = spec.build(0);
                        model.set_flat_params(ctx.global);
                        let mut rng = Rng64::new(ctx.seed ^ 0xC11E)
                            .derive(ctx.round as u64)
                            .derive(d.client_id as u64);
                        let shard = partition.client(d.client_id);
                        let u = run_local_round(model, train, shard, d.client_id, &local, &mut rng);
                        let flops = local_round_flops(macs, shard.len(), epochs);
                        t.record(
                            "client.local_round",
                            t.train_parent(),
                            ctx.round as u64,
                            start,
                            t.now(),
                            flops,
                        );
                        u
                    })
                },
            ))
        }
    };
    let mut session = builder.build().expect("valid paper_ce_feddrl session");
    let setup_s = start.elapsed().as_secs_f64();
    let d = drive(
        &mut session,
        t.map(|t| &**t),
        Some(TARGET_ACCURACY),
        PAPER_MIN_ROUNDS,
    );
    let mut unit = finish(session, d, setup_s, rounds, true);
    unit.replay_len = feddrl.agent().buffer.len();
    unit.ddpg_updates = feddrl.train_stats().iter().map(|s| s.updates).sum();
    if unit.target.is_none() {
        unit.problems.push(format!(
            "test accuracy never reached {TARGET_ACCURACY} in {rounds} rounds"
        ));
        unit.failed = unit.attempted;
    }
    unit
}

/// Worker threads `par_map` uses for the K = 10 clients of a
/// `paper_ce_feddrl` round.
pub fn paper_threads() -> usize {
    max_threads().min(10)
}

// ---------------------------------------------------------------------
// Stub-trained environments (server_buffered_fedadam, net_loopback_barrier)
// ---------------------------------------------------------------------

struct StubEnv {
    train: Dataset,
    test: Dataset,
    partition: Partition,
    spec: ModelSpec,
    pattern: Arc<Vec<f32>>,
}

/// The 784-feature set at production model size (MLP 784-256-10,
/// 203,530 parameters), IID over `n_clients`, with a test set of 100.
fn stub_env(seed: u64, train_size: usize, n_clients: usize) -> StubEnv {
    let (train, test) = SynthSpec {
        feature_dim: 784,
        train_size,
        test_size: 100,
        ..SynthSpec::mnist_like()
    }
    .generate(DATA_SEED);
    let partition = PartitionMethod::Iid
        .partition(&train, n_clients, &mut Rng64::new(seed ^ PARTITION_SALT))
        .expect("IID partition");
    let spec = ModelSpec::Mlp {
        in_dim: 784,
        hidden: vec![256],
        out_dim: train.num_classes(),
    };
    let pattern = Arc::new(stub_pattern(spec.build(0).param_count()));
    StubEnv {
        train,
        test,
        partition,
        spec,
        pattern,
    }
}

fn stub_cfg(seed: u64, rounds: usize, participants: usize, executor: ExecutorConfig) -> FlConfig {
    FlConfig {
        rounds,
        participants,
        local: LocalTrainConfig::default(),
        eval_batch: 256,
        seed,
        log_every: 0,
        selection: Selection::Uniform,
        executor,
        server_opt: ServerOptConfig::Plain,
    }
}

/// A session `train_fn` running the stub for every dispatch.
fn stub_train_fn<'a>(env: &'a StubEnv, t: Option<Arc<Tracer>>) -> Box<SessionTrainFn<'a>> {
    Box::new(move |ctx: &TrainContext<'_>, dispatches: &[Dispatch]| {
        let parent = t.as_ref().map_or(0, |t| t.train_parent());
        dispatches
            .iter()
            .map(|d| {
                let n_samples = env.partition.client(d.client_id).len();
                traced_stub(t.as_deref(), parent, ctx.round as u64, || {
                    stub_update(
                        ctx.seed,
                        ctx.round as u64,
                        d.client_id,
                        n_samples,
                        ctx.global,
                        &env.pattern,
                    )
                })
            })
            .collect()
    })
}

// ---------------------------------------------------------------------
// server_buffered_fedadam
// ---------------------------------------------------------------------

/// N = 1000 IID clients, K = 50 dispatched per round into a buffered
/// executor (m = 25, η = 0.5, polynomial staleness discount α = 0.5,
/// compute and bandwidth skew 4), FedAvg with FedAdam defaults, stub
/// training.
pub fn buffered_unit(seed: u64, rounds: usize, t: Option<&Arc<Tracer>>) -> Unit {
    let start = Instant::now();
    let env = stub_env(seed, 10_000, 1000);
    let buffered = BufferedConfig {
        fleet: FleetConfig {
            compute_skew: 4.0,
            bandwidth_skew: 4.0,
            seed: seed ^ FLEET_SALT,
            ..FleetConfig::default()
        },
        buffer_size: 25,
        staleness: StalenessDiscount::Polynomial { alpha: 0.5 },
        server_mix: Some(0.5),
        parallel_dispatch: false,
    };
    let mut cfg = stub_cfg(seed, rounds, 50, ExecutorConfig::Buffered(buffered));
    cfg.server_opt = ServerOptConfig::FedAdam(AdaptiveParams::default());
    let p = env.pattern.len() as u64;
    let mut fedavg = FedAvg;
    let mut wrapped;
    let strategy: &mut dyn Strategy = match t {
        Some(t) => {
            wrapped = TracedStrategy::new(&mut fedavg, Arc::clone(t));
            &mut wrapped
        }
        None => &mut fedavg,
    };
    let builder = SessionBuilder::new(&env.spec, &env.train, &env.test, &env.partition, strategy)
        .config(&cfg)
        .dataset_name("mnist-like-784")
        .train_fn(stub_train_fn(&env, t.cloned()));
    // Weighted average (read K inputs, write 1), the η blend (read 2,
    // write 1) and FedAdam (read global, aggregate, m, v; write m, v, out).
    let builder = with_executor(
        builder,
        t,
        cfg.executor.build(1000, p as usize, 50, seed),
        move |k| 4 * p * (k as u64 + 1 + 3 + 7),
    );
    let mut session = builder
        .build()
        .expect("valid server_buffered_fedadam session");
    let setup_s = start.elapsed().as_secs_f64();
    let d = drive(&mut session, t.map(|t| &**t), None, rounds);
    let empty_rounds = session
        .records()
        .iter()
        .filter(|r| r.client_losses_before.is_empty())
        .count();
    let mut unit = finish(session, d, setup_s, rounds, false);
    if empty_rounds > 0 {
        unit.problems
            .push(format!("{empty_rounds} rounds aggregated no update"));
        unit.failed += empty_rounds as u64;
    }
    unit
}

// ---------------------------------------------------------------------
// net_loopback_barrier
// ---------------------------------------------------------------------

const NET_CLIENTS: usize = 2;

/// `NetworkExecutor::barrier` over two loopback TCP connections served by
/// two worker threads running the stub; dense publishes, FedAvg, plain
/// server step.
pub fn net_unit(seed: u64, rounds: usize, t: Option<&Arc<Tracer>>) -> Unit {
    let start = Instant::now();
    let env = stub_env(seed, 200, NET_CLIENTS);
    let server = NetServerBuilder::new()
        .delta_publish(false)
        .build()
        .expect("bind loopback server");
    let addr = server.local_addr().to_string();
    let workers: Vec<_> = (0..NET_CLIENTS)
        .map(|cid| {
            let cfg = NetClientBuilder::new(addr.clone(), cid)
                .build()
                .expect("worker config");
            let pattern = Arc::clone(&env.pattern);
            let n_samples = env.partition.client(cid).len();
            let t = t.cloned();
            thread::spawn(move || {
                run_client(&cfg, move |order, global| {
                    let stub = || stub_update(seed, order.round, cid, n_samples, global, &pattern);
                    let Some(t) = t.as_deref() else {
                        return stub();
                    };
                    let (id, parent, begin) = (t.alloc(), t.exec_parent(), t.now());
                    let u = traced_stub(Some(t), id, order.round, stub);
                    t.push(
                        id,
                        "net.worker_train",
                        parent,
                        order.round,
                        begin,
                        t.now(),
                        0,
                    );
                    u
                })
            })
        })
        .collect();
    server
        .wait_for_clients(NET_CLIENTS, Duration::from_secs(10))
        .expect("workers subscribed");
    let executor = NetworkExecutor::barrier(server);
    let telemetry = executor.telemetry();
    let cfg = stub_cfg(seed, rounds, NET_CLIENTS, ExecutorConfig::Ideal);
    let p = env.pattern.len() as u64;
    let mut fedavg = FedAvg;
    let mut wrapped;
    let strategy: &mut dyn Strategy = match t {
        Some(t) => {
            wrapped = TracedStrategy::new(&mut fedavg, Arc::clone(t));
            &mut wrapped
        }
        None => &mut fedavg,
    };
    let builder = SessionBuilder::new(&env.spec, &env.train, &env.test, &env.partition, strategy)
        .config(&cfg)
        .dataset_name("mnist-like-784");
    let builder = with_executor(builder, t, Box::new(executor), move |k| {
        4 * p * (k as u64 + 1)
    });
    let mut session = builder.build().expect("valid net_loopback_barrier session");
    let setup_s = start.elapsed().as_secs_f64();
    let d = drive(&mut session, t.map(|t| &**t), None, rounds);
    let mut unit = finish(session, d, setup_s, rounds, false);
    // Dropping the session shut the server down; workers leave on `Bye`.
    for w in workers {
        match w.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => unit.problems.push(format!("worker failed: {e}")),
            Err(_) => unit.problems.push("worker thread panicked".into()),
        }
    }
    let tel = telemetry.lock().clone();
    unit.attempted = tel.dispatched as u64;
    unit.failed = (tel.failed_dispatches + tel.timed_out) as u64;
    if tel.dispatched != rounds * NET_CLIENTS {
        unit.problems.push(format!(
            "{} dispatches, expected {}",
            tel.dispatched,
            rounds * NET_CLIENTS
        ));
    }
    unit.net = Some(NetCounters {
        rtt_ms: tel.rtt_ms.clone(),
        publish_bytes: tel.publish.wire_bytes,
        dispatched: tel.dispatched as u64,
        failed_dispatches: tel.failed_dispatches as u64,
    });
    unit
}

/// The in-process reference for `net_loopback_barrier`: the same session
/// on the `Ideal` executor with the same stub as a `train_fn`. The wire
/// run must reproduce its digest exactly.
pub fn net_reference_digest(seed: u64) -> u64 {
    let env = stub_env(seed, 200, NET_CLIENTS);
    let cfg = stub_cfg(seed, NET_ROUNDS, NET_CLIENTS, ExecutorConfig::Ideal);
    let mut fedavg = FedAvg;
    let mut session = SessionBuilder::new(
        &env.spec,
        &env.train,
        &env.test,
        &env.partition,
        &mut fedavg,
    )
    .config(&cfg)
    .dataset_name("mnist-like-784")
    .train_fn(stub_train_fn(&env, None))
    .build()
    .expect("valid reference session");
    let d = drive(&mut session, None, None, NET_ROUNDS);
    finish(session, d, 0.0, NET_ROUNDS, false).digest
}
