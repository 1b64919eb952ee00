//! In-memory spans around the calls the benchmark makes into each layer's
//! public API, and the wrappers that record them.
//!
//! Nothing here reaches inside the program: the [`TracedStrategy`],
//! [`TracedExecutor`] and [`TraceObserver`] wrappers implement the same
//! public traits the session already accepts, time the call they forward,
//! and record a [`Span`]. The benchmark's own train callbacks and worker
//! closures record their spans through the same [`Tracer`]. Spans stay in
//! memory until the run ends and are then written out as JSON lines.
//!
//! Span tree of one round (parent → children):
//!
//! ```text
//! round ─┬─ session.select      step start → publish_model entry
//!        ├─ exec.publish        RoundExecutor::publish_model
//!        ├─ exec.execute ─┬─ exec.train_cb ─┬─ client.local_round (per client)
//!        │                │                 └─ stub (per update)
//!        │                └─ net.worker_train ── stub   (worker threads)
//!        ├─ strategy            Strategy::impact_factors_ctx
//!        ├─ aggregate           derived: RoundRecord::aggregate_micros
//!        ├─ eval                derived: post-train − strategy − aggregate
//!        └─ trace.observer      the benchmark's own observer
//! ```

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use feddrl_repro::prelude::*;

/// One timed interval. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u64,
    pub name: &'static str,
    pub round: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Computed work done inside the span (FLOPs or bytes; 0 if none).
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store plus the live context of the round being traced.
/// Context fields are atomics because train callbacks and worker closures
/// read them from other threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    round: AtomicU64,
    round_id: AtomicU64,
    step_start: AtomicU64,
    exec_id: AtomicU64,
    exec_end: AtomicU64,
    cb_id: AtomicU64,
    strategy_ns: AtomicU64,
    dispatched: AtomicU64,
    aggregated: AtomicU64,
    mean_staleness_bits: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            round: AtomicU64::new(0),
            round_id: AtomicU64::new(0),
            step_start: AtomicU64::new(0),
            exec_id: AtomicU64::new(0),
            exec_end: AtomicU64::new(0),
            cb_id: AtomicU64::new(0),
            strategy_ns: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            aggregated: AtomicU64::new(0),
            mean_staleness_bits: AtomicU64::new(0),
        })
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserve a span id before the span ends (so children can name it).
    pub fn alloc(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        round: u64,
        start_ns: u64,
        end_ns: u64,
        work: u64,
    ) {
        self.push(self.alloc(), name, parent, round, start_ns, end_ns, work);
    }

    /// Record a finished span under an id from [`Tracer::alloc`].
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        round: u64,
        start_ns: u64,
        end_ns: u64,
        work: u64,
    ) {
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name,
            round,
            start_ns,
            end_ns,
            work,
        });
    }

    /// Open the root span of round `round` (call right before
    /// `Session::step`); returns the token [`Tracer::end_round`] needs.
    pub fn begin_round(&self, round: usize) -> (u64, u64) {
        let id = self.alloc();
        let start = self.now();
        self.round.store(round as u64, Ordering::SeqCst);
        self.round_id.store(id, Ordering::SeqCst);
        self.step_start.store(start, Ordering::SeqCst);
        self.strategy_ns.store(0, Ordering::SeqCst);
        (id, start)
    }

    pub fn end_round(&self, (id, start): (u64, u64)) {
        let end = self.now();
        let round = self.round.load(Ordering::SeqCst);
        self.push(id, "round", 0, round, start, end, 0);
    }

    /// The `exec.execute` span of the round in progress (parent of the
    /// network workers' spans).
    pub fn exec_parent(&self) -> u64 {
        self.exec_id.load(Ordering::SeqCst)
    }

    /// The `exec.train_cb` span in progress (parent of per-client spans).
    pub fn train_parent(&self) -> u64 {
        self.cb_id.load(Ordering::SeqCst)
    }

    /// Updates handed to the train callback and updates aggregated, summed
    /// over every traced round.
    pub fn dispatch_counts(&self) -> (u64, u64) {
        (
            self.dispatched.load(Ordering::SeqCst),
            self.aggregated.load(Ordering::SeqCst),
        )
    }

    /// `RoundSignals::mean_staleness` as of the last traced round.
    pub fn mean_staleness(&self) -> f64 {
        f64::from_bits(self.mean_staleness_bits.load(Ordering::SeqCst))
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Write `spans` as JSON lines to `path` (creating its directory).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
            s.id, s.parent, s.name, s.round, s.start_ns, s.end_ns, s.work
        )?;
    }
    out.flush()
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Sum of durations (seconds) and of work of every span called `name`.
pub fn totals(spans: &[Span], name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, w), s| {
            (t + s.dur_ns() as f64 / 1e9, w + s.work)
        })
}

/// Self time in milliseconds of every span called `name`: its duration
/// minus the part of its interval that its child spans cover.
pub fn self_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered) as f64 / 1e6
        })
        .collect()
}

/// Times `Strategy::impact_factors_ctx` and forwards everything else.
pub struct TracedStrategy<'s> {
    inner: &'s mut dyn Strategy,
    t: Arc<Tracer>,
}

impl<'s> TracedStrategy<'s> {
    pub fn new(inner: &'s mut dyn Strategy, t: Arc<Tracer>) -> Self {
        TracedStrategy { inner, t }
    }
}

impl Strategy for TracedStrategy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn impact_factors(&mut self, round: usize, summaries: &[ClientSummary]) -> Vec<f32> {
        self.inner.impact_factors(round, summaries)
    }

    fn impact_factors_ctx(&mut self, ctx: &RoundContext<'_>) -> Vec<f32> {
        let t = &self.t;
        let start = t.now();
        let out = self.inner.impact_factors_ctx(ctx);
        let end = t.now();
        let round_id = t.round_id.load(Ordering::SeqCst);
        t.record("strategy", round_id, ctx.round as u64, start, end, 0);
        t.strategy_ns.store(end - start, Ordering::SeqCst);
        out
    }

    fn proximal_mu(&self) -> Option<f32> {
        self.inner.proximal_mu()
    }
}

/// Times `publish_model`, `execute` and the train callback the session
/// hands to `execute`; forwards every accessor unchanged.
pub struct TracedExecutor {
    inner: Box<dyn RoundExecutor>,
    t: Arc<Tracer>,
}

impl TracedExecutor {
    pub fn new(inner: Box<dyn RoundExecutor>, t: Arc<Tracer>) -> Self {
        TracedExecutor { inner, t }
    }
}

impl RoundExecutor for TracedExecutor {
    fn execute(&mut self, round: usize, selected: &[usize], train: &TrainFn<'_>) -> RoundOutcome {
        let t = &self.t;
        let round_id = t.round_id.load(Ordering::SeqCst);
        let exec_id = t.alloc();
        t.exec_id.store(exec_id, Ordering::SeqCst);
        let start = t.now();
        let traced_train = |dispatches: &[Dispatch]| -> Vec<ClientUpdate> {
            let cb_id = t.alloc();
            t.cb_id.store(cb_id, Ordering::SeqCst);
            let cb_start = t.now();
            let out = train(dispatches);
            t.push(
                cb_id,
                "exec.train_cb",
                exec_id,
                round as u64,
                cb_start,
                t.now(),
                0,
            );
            t.dispatched
                .fetch_add(dispatches.len() as u64, Ordering::SeqCst);
            out
        };
        let outcome = self.inner.execute(round, selected, &traced_train);
        let end = t.now();
        t.push(
            exec_id,
            "exec.execute",
            round_id,
            round as u64,
            start,
            end,
            0,
        );
        t.exec_end.store(end, Ordering::SeqCst);
        outcome
    }

    fn publish_model(&mut self, round: usize, global: &[f32]) {
        let t = &self.t;
        let round_id = t.round_id.load(Ordering::SeqCst);
        let start = t.now();
        let step_start = t.step_start.load(Ordering::SeqCst);
        t.record(
            "session.select",
            round_id,
            round as u64,
            step_start,
            start,
            0,
        );
        self.inner.publish_model(round, global);
        t.record("exec.publish", round_id, round as u64, start, t.now(), 0);
    }

    fn universe(&self) -> Option<usize> {
        self.inner.universe()
    }

    fn departed_clients(&self) -> Vec<usize> {
        self.inner.departed_clients()
    }

    fn fleet(&self) -> Option<&FleetView> {
        self.inner.fleet()
    }

    fn upload_bytes(&self) -> u64 {
        self.inner.upload_bytes()
    }

    fn deadline_s(&self) -> Option<f64> {
        self.inner.deadline_s()
    }

    fn staleness_discount(&self) -> StalenessDiscount {
        self.inner.staleness_discount()
    }

    fn server_mix(&self) -> f64 {
        self.inner.server_mix()
    }

    fn in_flight_clients(&self) -> Vec<usize> {
        self.inner.in_flight_clients()
    }

    fn reliability(&self) -> Option<&ReliabilityTable> {
        self.inner.reliability()
    }
}

/// Closes each round's post-training interval: the time from `execute`
/// returning to this observer being called is split into the strategy
/// span already recorded, the aggregation time the session measured
/// itself (`RoundRecord::aggregate_micros`), and evaluation (the rest).
pub struct TraceObserver {
    t: Arc<Tracer>,
    /// Bytes the aggregation must move per round, as a function of the
    /// number of updates aggregated.
    agg_bytes: Box<dyn Fn(usize) -> u64 + Send>,
}

impl TraceObserver {
    pub fn new(t: Arc<Tracer>, agg_bytes: Box<dyn Fn(usize) -> u64 + Send>) -> Self {
        TraceObserver { t, agg_bytes }
    }
}

impl RoundObserver for TraceObserver {
    fn on_round_end(&mut self, signals: &RoundSignals<'_>) -> RoundControl {
        let t = &self.t;
        let obs_start = t.now();
        let record = signals.record;
        let round = record.round as u64;
        let round_id = t.round_id.load(Ordering::SeqCst);
        let post_train = obs_start.saturating_sub(t.exec_end.load(Ordering::SeqCst));
        let strategy = t.strategy_ns.load(Ordering::SeqCst);
        let aggregate = record.aggregate_micros * 1000;
        let eval = post_train.saturating_sub(strategy + aggregate);
        let eval_start = obs_start - eval;
        let agg_start = eval_start.saturating_sub(aggregate);
        let n_agg = record.client_losses_before.len();
        let work = if n_agg == 0 {
            0
        } else {
            (self.agg_bytes)(n_agg)
        };
        t.record("aggregate", round_id, round, agg_start, eval_start, work);
        t.record("eval", round_id, round, eval_start, obs_start, 0);
        t.aggregated.fetch_add(n_agg as u64, Ordering::SeqCst);
        t.mean_staleness_bits
            .store(signals.mean_staleness.to_bits(), Ordering::SeqCst);
        t.record("trace.observer", round_id, round, obs_start, t.now(), 0);
        RoundControl::Continue
    }
}
