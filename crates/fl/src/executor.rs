//! Round executors: *which* sampled clients report back, and *when*.
//!
//! The paper's Algorithm 2 assumes every sampled client trains and its
//! update arrives instantly; [`IdealExecutor`] reproduces that setting
//! bit-for-bit (the default). Real deployments face stragglers, dropouts
//! and churn, which the two simulated-fleet executors model on one
//! private core. The core holds the lazy [`FleetView`], the §3.5 upload
//! price, the dropout seed, the optional churn process, the
//! [`ReliabilityTable`] and the model-version counter, and runs the four
//! steps every round takes: *open* (advance churn to the round start),
//! *admit* (departed → dropout, busy → skipped, seeded dropout draw, else
//! dispatch), *account* (stamp staleness, update the telemetry, advance
//! the version on aggregation) and *close* (write the round's
//! [`HeteroRoundRecord`]). Each executor keeps only its timeline policy:
//!
//! * [`DeadlineExecutor`] replays each round on a round-local
//!   [`EventQueue`] against the deadline. Predicted deadline-missers train
//!   a structured-dropout sub-model or are forgone, and late updates are
//!   dropped or carried into a later round ([`LatePolicy`]);
//! * [`BufferedExecutor`] drops the round barrier (FedAsync/FedBuff-style):
//!   its clock and event queue persist across rounds, and the server
//!   aggregates as soon as `m = buffer_size` updates have arrived — a slow
//!   device's update lands `s` model versions stale, its impact factor
//!   scaled by a [`StalenessDiscount`].
//!
//! Determinism: dropout draws derive from `(seed, round, client id)` and
//! device profiles from the fleet seed, so heterogeneity scenarios
//! reproduce exactly, independent of thread scheduling.

use std::collections::BTreeMap;

use crate::client::ClientUpdate;
use crate::history::HeteroRoundRecord;
use feddrl_nn::parallel::par_map;
use feddrl_nn::rng::Rng64;
use feddrl_sim::churn::ChurnProcess;
use feddrl_sim::comm::CommModel;
use feddrl_sim::device::{FleetConfig, FleetView};
use feddrl_sim::event::{Event, EventKind, EventQueue, VirtualClock};
use serde::{Deserialize, Serialize};

/// How an update's impact factor is scaled by its staleness `s` — the
/// number of model versions aggregated between the version the update was
/// trained against and the version it is aggregated into.
///
/// Applied by the session loop to the strategy's *raw* factors before
/// simplex normalization, so a discount redistributes weight toward
/// fresher updates rather than shrinking the aggregate. Every function is
/// exactly `1` at `s = 0`, which keeps fresh-only rounds bit-identical to
/// an undiscounted run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum StalenessDiscount {
    /// No discount: stale updates aggregate at full weight.
    #[default]
    None,
    /// FedAsync's polynomial decay `(1 + s)^{-alpha}`: smooth, never zero,
    /// `alpha` controls how hard staleness is punished (`alpha = 0` is a
    /// no-op, `alpha = 1` is the `1/(1+s)` aging suggested in the survey
    /// literature).
    Polynomial {
        /// Decay exponent (finite, non-negative).
        alpha: f64,
    },
    /// Hinged decay: full weight up to `cutoff` versions of slack, then
    /// `1/(1 + s - cutoff)` beyond it — tolerate mild staleness, punish
    /// the long tail. Never zero, so a round of all-stale updates still
    /// normalizes onto the simplex.
    Hinge {
        /// Staleness up to which an update keeps full weight.
        cutoff: usize,
    },
}

impl StalenessDiscount {
    /// The multiplicative weight for an update `staleness` versions behind.
    /// Always in `(0, 1]`, and exactly `1.0` at zero staleness. The lower
    /// end is clamped to `f32::MIN_POSITIVE`: an aggressive polynomial
    /// exponent must never underflow to an exact zero, or an all-stale
    /// aggregation would zero every factor and fail simplex normalization
    /// mid-run on a configuration the builder accepted.
    pub fn factor(&self, staleness: usize) -> f32 {
        let raw = match *self {
            StalenessDiscount::None => return 1.0,
            StalenessDiscount::Polynomial { alpha } => (1.0 + staleness as f64).powf(-alpha) as f32,
            StalenessDiscount::Hinge { cutoff } => {
                if staleness <= cutoff {
                    1.0
                } else {
                    (1.0 / (1.0 + (staleness - cutoff) as f64)) as f32
                }
            }
        };
        raw.max(f32::MIN_POSITIVE)
    }

    /// Check the discount's parameters.
    ///
    /// # Errors
    /// [`FlError::InvalidDiscount`](crate::error::FlError::InvalidDiscount)
    /// on a non-finite or negative polynomial exponent.
    pub fn validate(&self) -> Result<(), crate::error::FlError> {
        if let StalenessDiscount::Polynomial { alpha } = *self {
            if !(alpha.is_finite() && alpha >= 0.0) {
                return Err(crate::error::FlError::InvalidDiscount {
                    reason: format!(
                        "polynomial exponent must be finite and non-negative, got {alpha}"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// What happens to an update that misses the round deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LatePolicy {
    /// Late updates are discarded (the client's round was wasted).
    #[default]
    Drop,
    /// Late updates are buffered and aggregated in a later round with
    /// spare capacity (stale but not wasted — the FedAsync-style
    /// compromise). At most `participants` updates are aggregated per
    /// round, so a stale update waits until dropouts/stragglers leave
    /// room; it is discarded if its client reports fresh first, or if the
    /// queue outgrows `participants` (oldest evicted — unbounded staleness
    /// would poison the aggregate).
    CarryOver,
}

/// Adaptive structured dropout: a device whose predicted full-model
/// completion time misses the round deadline trains a *masked sub-model*
/// (whole hidden units removed, compute scaled down proportionally)
/// instead of being dropped or carried stale. The executor picks the
/// **largest** keep ratio from a small grid that still fits the deadline;
/// if even the smallest misses, the client falls back to the configured
/// [`LatePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StructuredDropoutConfig {
    /// Smallest sub-model the server will ask a device to train, as a
    /// keep fraction in `(0, 1)`.
    pub min_ratio: f64,
    /// Number of keep-ratio levels on the grid
    /// `min_ratio + i · (1 − min_ratio) / levels`, `i ∈ [0, levels)` — all
    /// strictly below 1 (a full model is not a sub-model).
    pub levels: usize,
}

impl Default for StructuredDropoutConfig {
    /// Four levels down to a quarter-width model: 0.25, 0.4375, 0.625,
    /// 0.8125.
    fn default() -> Self {
        Self {
            min_ratio: 0.25,
            levels: 4,
        }
    }
}

impl StructuredDropoutConfig {
    /// Candidate keep ratios, largest first (the executor takes the first
    /// that fits the deadline — the biggest sub-model the device can
    /// finish in time).
    pub fn ratios_desc(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.levels)
            .rev()
            .map(move |i| self.min_ratio + i as f64 * (1.0 - self.min_ratio) / self.levels as f64)
    }

    /// The largest keep ratio on the grid whose predicted completion time
    /// (per the caller-supplied cost model) fits the deadline, or `None`
    /// when even the smallest sub-model misses it.
    ///
    /// Both the in-process [`DeadlineExecutor`] and the networked
    /// executor's wire-masking path route their dispatch decision through
    /// this one function, so a given `(deadline, cost model)` pair yields
    /// the same keep ratio on either side — a precondition for their
    /// byte-identical histories.
    pub fn largest_fitting(
        &self,
        deadline_s: f64,
        mut time_for_ratio: impl FnMut(f64) -> f64,
    ) -> Option<f64> {
        self.ratios_desc()
            .find(|&r| time_for_ratio(r) <= deadline_s)
    }

    /// Check the ratio grid's invariants.
    ///
    /// # Errors
    /// [`FlError::InvalidDynamics`](crate::error::FlError::InvalidDynamics)
    /// on a ratio outside `(0, 1)` or an empty grid.
    pub fn validate(&self) -> Result<(), crate::error::FlError> {
        use crate::error::FlError;
        if !(self.min_ratio.is_finite() && 0.0 < self.min_ratio && self.min_ratio < 1.0) {
            return Err(FlError::InvalidDynamics {
                reason: format!(
                    "structured-dropout min_ratio must be in (0, 1), got {}",
                    self.min_ratio
                ),
            });
        }
        if self.levels == 0 {
            return Err(FlError::InvalidDynamics {
                reason: "structured-dropout ratio grid needs at least one level".into(),
            });
        }
        Ok(())
    }
}

/// Deadline-bounded execution knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct HeteroConfig {
    /// Device-fleet generation parameters (one profile per client).
    pub fleet: FleetConfig,
    /// Round deadline in simulated seconds; `None` waits for every
    /// non-dropped client (unbounded round).
    #[serde(default)]
    pub deadline_s: Option<f64>,
    /// Fate of updates that miss the deadline.
    #[serde(default)]
    pub late_policy: LatePolicy,
    /// Adaptive structured dropout for predicted deadline-missers; `None`
    /// (the default, omitted from JSON) sends every foregone straggler
    /// down the `late_policy` path — the historical behavior.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub structured_dropout: Option<StructuredDropoutConfig>,
    /// Discount aging carried-over updates by the rounds they waited
    /// (meaningful under [`LatePolicy::CarryOver`]; the default `None`
    /// reinjects them at full weight, the pre-discount behavior).
    #[serde(default)]
    pub staleness: StalenessDiscount,
    /// Train dispatched clients in parallel (one [`par_map`] task per
    /// client, capped by `feddrl_nn::parallel::set_max_threads`) instead of
    /// one serial `train` call. Bit-identical to the serial loop under a
    /// fixed seed *provided* the train callback maps each client
    /// independently — true for the session's per-client derived RNG
    /// streams. Off by default.
    #[serde(default)]
    pub parallel_dispatch: bool,
}

impl HeteroConfig {
    /// Check every invariant the deadline executor enforces — the single
    /// source of truth shared by [`DeadlineExecutor::new`] (which panics
    /// on violation) and
    /// [`FlConfig::validate`](crate::server::FlConfig::validate) (which
    /// surfaces it as a typed error before any compute is spent).
    ///
    /// # Errors
    /// [`FlError::InvalidDeadline`](crate::error::FlError::InvalidDeadline),
    /// [`FlError::InvalidFleet`](crate::error::FlError::InvalidFleet),
    /// [`FlError::InvalidReliability`](crate::error::FlError::InvalidReliability) or
    /// [`FlError::InvalidDynamics`](crate::error::FlError::InvalidDynamics).
    pub fn validate(&self) -> Result<(), crate::error::FlError> {
        use crate::error::FlError;
        if let Some(d) = self.deadline_s {
            if !(d.is_finite() && d > 0.0) {
                return Err(FlError::InvalidDeadline { deadline_s: d });
            }
        }
        if let Some(sd) = &self.structured_dropout {
            sd.validate()?;
        }
        self.staleness.validate()?;
        validate_fleet(&self.fleet)
    }
}

/// Shared fleet validation mapping the three halves of
/// [`FleetConfig::validate`] to their distinct typed errors.
fn validate_fleet(fleet: &FleetConfig) -> Result<(), crate::error::FlError> {
    use crate::error::FlError;
    fleet
        .validate_base()
        .map_err(|reason| FlError::InvalidFleet { reason })?;
    fleet
        .validate_reliability()
        .map_err(|reason| FlError::InvalidReliability { reason })?;
    fleet
        .validate_dynamics()
        .map_err(|reason| FlError::InvalidDynamics { reason })
}

/// Buffered asynchronous execution knobs (FedAsync/FedBuff-style).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferedConfig {
    /// Device-fleet generation parameters (one profile per client).
    pub fleet: FleetConfig,
    /// Updates the server waits for before aggregating (`m`). Must be in
    /// `[1, participants]`: zero would never aggregate, and a buffer
    /// larger than the per-round dispatch width starves the first rounds.
    pub buffer_size: usize,
    /// Impact-factor discount applied per update by its staleness.
    #[serde(default)]
    pub staleness: StalenessDiscount,
    /// Server mixing rate `η ∈ (0, 1]`: the new global model is
    /// `(1 − η)·w + η·Σ αₖ wₖ` — the FedAsync/FedBuff server step that
    /// keeps a small buffer from fully overwriting the global with a few
    /// clients' (possibly stale, non-IID) models. `None` means `η = 1`,
    /// the paper's pure Eq. 4 replacement.
    #[serde(default)]
    pub server_mix: Option<f64>,
    /// Train dispatched clients in parallel, as
    /// [`HeteroConfig::parallel_dispatch`]. Off by default.
    #[serde(default)]
    pub parallel_dispatch: bool,
}

impl Default for BufferedConfig {
    /// Homogeneous default fleet, buffer of 1 (pure FedAsync), no
    /// discount.
    fn default() -> Self {
        Self {
            fleet: FleetConfig::default(),
            buffer_size: 1,
            staleness: StalenessDiscount::None,
            server_mix: None,
            parallel_dispatch: false,
        }
    }
}

impl BufferedConfig {
    /// Check every invariant the buffered executor enforces — shared by
    /// [`BufferedExecutor::new`] (which panics on violation) and
    /// [`FlConfig::validate`](crate::server::FlConfig::validate) (which
    /// surfaces it as a typed error before any compute is spent).
    ///
    /// # Errors
    /// [`FlError::ZeroBuffer`](crate::error::FlError::ZeroBuffer),
    /// [`FlError::BufferExceedsParticipants`](crate::error::FlError::BufferExceedsParticipants),
    /// [`FlError::InvalidDiscount`](crate::error::FlError::InvalidDiscount),
    /// [`FlError::InvalidFleet`](crate::error::FlError::InvalidFleet) or
    /// [`FlError::InvalidReliability`](crate::error::FlError::InvalidReliability).
    pub fn validate(&self, participants: usize) -> Result<(), crate::error::FlError> {
        use crate::error::FlError;
        if self.buffer_size == 0 {
            return Err(FlError::ZeroBuffer);
        }
        if self.buffer_size > participants {
            return Err(FlError::BufferExceedsParticipants {
                buffer_size: self.buffer_size,
                participants,
            });
        }
        if let Some(eta) = self.server_mix {
            if !(eta.is_finite() && 0.0 < eta && eta <= 1.0) {
                return Err(FlError::InvalidServerMix { server_mix: eta });
            }
        }
        self.staleness.validate()?;
        validate_fleet(&self.fleet)
    }
}

/// Which execution model a federated run uses (a [`crate::server::FlConfig`]
/// knob; `Ideal` is the paper's synchronous setting and the default).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum ExecutorConfig {
    /// Every sampled client trains and reports instantly (Algorithm 2).
    #[default]
    Ideal,
    /// Deadline-bounded rounds over a heterogeneous device fleet.
    Deadline(HeteroConfig),
    /// Buffered asynchronous aggregation: no round barrier, the server
    /// aggregates whenever `buffer_size` updates have arrived, stale
    /// updates discounted by [`StalenessDiscount`].
    Buffered(BufferedConfig),
}

impl ExecutorConfig {
    /// Build the executor for a run of `n_clients` total clients exchanging
    /// a `param_count`-parameter model with `participants` clients per
    /// round. `seed` salts the per-round dropout draws.
    pub fn build(
        &self,
        n_clients: usize,
        param_count: usize,
        participants: usize,
        seed: u64,
    ) -> Box<dyn RoundExecutor> {
        match self {
            ExecutorConfig::Ideal => Box::new(IdealExecutor),
            ExecutorConfig::Deadline(cfg) => Box::new(DeadlineExecutor::new(
                cfg.clone(),
                n_clients,
                param_count,
                participants,
                seed,
            )),
            ExecutorConfig::Buffered(cfg) => Box::new(BufferedExecutor::new(
                cfg.clone(),
                n_clients,
                param_count,
                participants,
                seed,
            )),
        }
    }
}

/// Per-client reliability telemetry a heterogeneity-aware executor
/// accumulates over a run — the *observed* counterpart to the fleet's
/// configured [`DeviceProfile`](feddrl_sim::device::DeviceProfile) rates,
/// which selection policies are not allowed to read directly (a real
/// server never knows a device's true failure probability, only what it
/// has seen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientReliability {
    /// Times this client was sampled and its device failed the round
    /// before training.
    pub dropouts: usize,
    /// Times this client was sampled and actually dispatched to train.
    pub dispatches: usize,
    /// Updates from this client the server has aggregated.
    pub aggregated: usize,
    /// Total staleness (in model versions) over its aggregated updates.
    pub staleness_sum: usize,
}

impl ClientReliability {
    /// Observed dropout frequency: failures over times the server tried
    /// this client (0 while the client is unobserved).
    pub fn dropout_rate(&self) -> f64 {
        let tried = self.dropouts + self.dispatches;
        if tried == 0 {
            0.0
        } else {
            self.dropouts as f64 / tried as f64
        }
    }

    /// Mean staleness over this client's aggregated updates (0 while none
    /// arrived) — chronically high values mark the slow devices an
    /// async-aware policy should dispatch while they are idle.
    pub fn mean_staleness(&self) -> f64 {
        if self.aggregated == 0 {
            0.0
        } else {
            self.staleness_sum as f64 / self.aggregated as f64
        }
    }
}

/// Sparse per-client reliability telemetry: [`ClientReliability`] keyed by
/// the clients the executor has actually *observed* (dispatched or seen
/// drop), instead of a dense `Vec` over the whole fleet.
///
/// An unobserved client reads as [`ClientReliability::default`] — exactly
/// what a dense table initialized that way would hold — so lookups are
/// total and the switch from dense storage is invisible to readers. What
/// changes is the memory shape: a million-client fleet whose rounds touch
/// a hundred devices holds a hundred entries ([`ReliabilityTable::observed`]
/// is the resident-entry count the scale sweep reports), and iteration
/// visits only observed clients, in ascending id order (deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReliabilityTable {
    stats: BTreeMap<usize, ClientReliability>,
}

impl ReliabilityTable {
    /// An empty table (nothing observed yet). Allocation-free and
    /// independent of fleet size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Telemetry for `client_id` — the zero record if unobserved.
    pub fn get(&self, client_id: usize) -> ClientReliability {
        self.stats.get(&client_id).copied().unwrap_or_default()
    }

    /// Mutable telemetry for `client_id`, inserting the zero record on
    /// first observation.
    pub fn entry(&mut self, client_id: usize) -> &mut ClientReliability {
        self.stats.entry(client_id).or_default()
    }

    /// Replace `client_id`'s telemetry wholesale (test/bench synthesis).
    pub fn insert(&mut self, client_id: usize, stats: ClientReliability) {
        self.stats.insert(client_id, stats);
    }

    /// Number of clients observed so far — the resident-memory metric:
    /// proportional to clients actually dispatched, never to fleet size.
    pub fn observed(&self) -> usize {
        self.stats.len()
    }

    /// Whether no client has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Iterate observed `(client_id, telemetry)` pairs in ascending id
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &ClientReliability)> + '_ {
        self.stats.iter().map(|(&id, s)| (id, s))
    }

    /// Field-wise totals over every observed client — the aggregate the
    /// accounting laws (dispatch/dropout/aggregation closure) are stated
    /// against.
    pub fn totals(&self) -> ClientReliability {
        let mut t = ClientReliability::default();
        for s in self.stats.values() {
            t.dropouts += s.dropouts;
            t.dispatches += s.dispatches;
            t.aggregated += s.aggregated;
            t.staleness_sum += s.staleness_sum;
        }
        t
    }
}

impl FromIterator<(usize, ClientReliability)> for ReliabilityTable {
    fn from_iter<I: IntoIterator<Item = (usize, ClientReliability)>>(iter: I) -> Self {
        Self {
            stats: iter.into_iter().collect(),
        }
    }
}

/// One client's training order: who trains, and how much of the model.
///
/// Executors hand the session a slice of these instead of bare client
/// ids, so adaptive structured dropout can ask a pressured device for a
/// sub-model without a second callback channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dispatch {
    /// Client index in the federation.
    pub client_id: usize,
    /// Fraction of the model's hidden units this client trains, in
    /// `(0, 1]`. `1` is full-model training; anything below it asks the
    /// session to derive a per-`(round, client)`
    /// [`StructuredMask`](feddrl_nn::mask::StructuredMask) (see
    /// [`crate::client::MASK_SALT`]) and train the masked sub-model.
    pub keep_ratio: f64,
}

impl Dispatch {
    /// A full-model training order for `client_id`.
    pub fn full(client_id: usize) -> Self {
        Self {
            client_id,
            keep_ratio: 1.0,
        }
    }
}

/// The local-training callback executors dispatch through: maps each
/// [`Dispatch`] to its client's [`ClientUpdate`], in order. Must be
/// `Sync`: executors with `parallel_dispatch` enabled invoke it from
/// [`par_map`] workers, one dispatch per call.
pub type TrainFn<'a> = dyn Fn(&[Dispatch]) -> Vec<ClientUpdate> + Sync + 'a;

/// Run `train` over `dispatches` — serially in one call, or (when
/// `parallel` is set) as one [`par_map`] task per client, concatenated back
/// in input order.
///
/// The two paths are bit-identical whenever `train` maps each client
/// independently of the others in its slice — the contract the session's
/// train callback satisfies by deriving every client's RNG stream from
/// `(seed, round, client id)` alone. `tests/scale_props.rs` pins the
/// byte-identity of full run histories across both paths.
fn dispatch_train(
    train: &TrainFn<'_>,
    dispatches: &[Dispatch],
    parallel: bool,
) -> Vec<ClientUpdate> {
    if !parallel || dispatches.len() < 2 {
        return train(dispatches);
    }
    par_map(dispatches, |_, &d| train(&[d]))
        .into_iter()
        .flatten()
        .collect()
}

/// What a round executor hands back to the server loop.
pub struct RoundOutcome {
    /// Updates to aggregate this round, in deterministic order: carried-in
    /// stale updates first (oldest information), then this round's
    /// arrivals in sampling order. May be empty (everyone dropped or
    /// missed the deadline) — the server then skips aggregation.
    pub updates: Vec<ClientUpdate>,
    /// Heterogeneity telemetry; `None` for the ideal executor.
    pub hetero: Option<HeteroRoundRecord>,
}

/// The round-execution abstraction the server loop runs against.
///
/// `train` runs local training for a *subset* of the sampled clients and
/// returns their updates in the given order; the executor decides which
/// clients actually train (dropouts are decided before training, saving
/// their wasted CPU) and which reports make it back in time.
pub trait RoundExecutor: Send {
    /// Execute round `round` for the sampled `selected` clients. The
    /// executor decides which of them actually train — and, under
    /// adaptive structured dropout, how much of the model each trains —
    /// and invokes `train` with the resulting [`Dispatch`] orders.
    fn execute(&mut self, round: usize, selected: &[usize], train: &TrainFn<'_>) -> RoundOutcome;

    /// Broadcast the current global model to wherever training happens.
    /// The session calls this once per round, right before
    /// [`RoundExecutor::execute`], with the flat parameters the selected
    /// clients must train from. Every in-process executor keeps the no-op
    /// default (its `train` callback clones the live model directly);
    /// distributed executors (`feddrl_net`) fan the weights out to their
    /// remote client workers here.
    fn publish_model(&mut self, round: usize, global: &[f32]) {
        let _ = (round, global);
    }

    /// Total client ids ever minted, when this executor models fleet
    /// churn: ids in `[0, universe)` are valid to select (some may have
    /// departed), and growth of this value between rounds is how the
    /// session learns of late joiners. `None` — the default — means the
    /// client set is fixed at the partition's size.
    fn universe(&self) -> Option<usize> {
        None
    }

    /// Clients that have left the federation (churn departures), in
    /// ascending id order. Their telemetry persists — the server only
    /// ever *observes* departure as dispatches that stop answering — but
    /// reliability-aware selection excludes them outright once told.
    /// Empty for executors without churn.
    fn departed_clients(&self) -> Vec<usize> {
        Vec::new()
    }

    /// The device fleet this executor simulates, if any — what
    /// heterogeneity-aware [`SelectionPolicy`](crate::selection::SelectionPolicy)s
    /// base their completion-time estimates on. Served as a lazy
    /// [`FleetView`] so policies over a million-device fleet derive only
    /// the candidate profiles they score. `None` for executors without a
    /// device model (the ideal one).
    fn fleet(&self) -> Option<&FleetView> {
        None
    }

    /// Per-client upload payload in bytes (0 when there is no
    /// communication model); combined with
    /// [`RoundExecutor::fleet`] it prices a client's predicted arrival.
    fn upload_bytes(&self) -> u64 {
        0
    }

    /// The round deadline in simulated seconds, if this executor bounds
    /// rounds — lets selection policies avoid clients that would be cut.
    fn deadline_s(&self) -> Option<f64> {
        None
    }

    /// How the session loop should discount a stale update's impact factor
    /// (the factor for an update `s` versions behind is multiplied by
    /// [`StalenessDiscount::factor`]`(s)` before simplex normalization).
    /// `None` — the default — leaves factors untouched, so executors that
    /// only ever report fresh updates keep the historical byte-identical
    /// path.
    fn staleness_discount(&self) -> StalenessDiscount {
        StalenessDiscount::None
    }

    /// Server mixing rate `η ∈ (0, 1]` the session applies at aggregation:
    /// `w ← (1 − η)·w + η·Σ αₖ wₖ`. The default `1.0` is the paper's pure
    /// Eq. 4 replacement and leaves the historical code path untouched.
    fn server_mix(&self) -> f64 {
        1.0
    }

    /// Clients whose dispatched update is still on its way to the server
    /// — training, uploading, or parked in an unconsumed server-side
    /// queue. Sampling them again either wastes the slot (the buffered
    /// executor skips busy devices at dispatch) or supersedes — discards
    /// — the queued stale update (the deadline executor's carry-over), so
    /// async-aware selection policies rank them last. Executors that end
    /// every round with nothing pending keep the empty default.
    fn in_flight_clients(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Per-client reliability telemetry observed so far, keyed by client
    /// id over *observed* clients only — dropout counts and staleness
    /// history a [`SelectionPolicy`](crate::selection::SelectionPolicy)
    /// can learn from. `None` for executors without a device model (the
    /// ideal one never drops anyone).
    fn reliability(&self) -> Option<&ReliabilityTable> {
        None
    }
}

/// The paper's idealized synchronous round: everyone trains, everyone
/// reports, no virtual time passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealExecutor;

impl RoundExecutor for IdealExecutor {
    fn execute(&mut self, _round: usize, selected: &[usize], train: &TrainFn<'_>) -> RoundOutcome {
        let dispatches: Vec<Dispatch> = selected.iter().map(|&c| Dispatch::full(c)).collect();
        RoundOutcome {
            updates: train(&dispatches),
            hetero: None,
        }
    }
}

/// Salt for the per-round dropout RNG stream (distinct from client
/// training `0xC11E` and selection streams).
const DROPOUT_SALT: u64 = 0xD20_0FF;

/// The simulated fleet under [`DeadlineExecutor`] and
/// [`BufferedExecutor`] (see the module docs): the state both carry and
/// the per-round steps both take, around each one's timeline policy.
struct FleetCore {
    fleet: FleetView,
    /// Per-client upload payload (model weights + metadata).
    upload_bytes: u64,
    /// Run seed, salting the per-round dropout draws.
    seed: u64,
    churn: Option<ChurnProcess>,
    stats: ReliabilityTable,
    /// Global-model versions produced so far — advanced only on
    /// aggregation, so staleness counts versions, not calendar rounds.
    version: usize,
}

/// One round's counters, filled by [`FleetCore::admit`] and the timeline
/// policy, then written into the round's record by [`FleetCore::close`].
#[derive(Default)]
struct Tally {
    round: usize,
    start_s: f64,
    /// Churn join/leave totals when the round opened.
    joins: usize,
    leaves: usize,
    sim_time_s: f64,
    dropouts: usize,
    stragglers: usize,
    carried_in: usize,
    busy: usize,
    buffered: usize,
    masked: usize,
}

impl FleetCore {
    fn new(
        cfg: &FleetConfig,
        n_clients: usize,
        param_count: usize,
        participants: usize,
        seed: u64,
    ) -> Self {
        assert!(participants > 0, "participants must be positive");
        let k = participants as u64;
        let traffic = CommModel::new(param_count.max(1) as u64, k).feddrl_round();
        Self {
            fleet: FleetView::new(n_clients, cfg),
            upload_bytes: (traffic.uplink_models + traffic.uplink_metadata) / k,
            seed,
            churn: cfg
                .churn
                .as_ref()
                .map(|c| ChurnProcess::new(n_clients, c, cfg.seed ^ seed)),
            stats: ReliabilityTable::new(),
            version: 0,
        }
    }

    fn churn_totals(&self) -> (usize, usize) {
        self.churn
            .as_ref()
            .map_or((0, 0), |c| (c.joins(), c.leaves()))
    }

    /// `client_id`'s completion time for a `keep_ratio` sub-model.
    fn completion_s(&self, client_id: usize, keep_ratio: f64, start_s: f64) -> f64 {
        let (profile, diurnal) = (self.fleet.profile(client_id), self.fleet.config().diurnal);
        profile.completion_time_at(self.upload_bytes, keep_ratio, diurnal.as_ref(), start_s)
    }

    fn departed(&self, client_id: usize) -> bool {
        self.churn.as_ref().is_some_and(|c| !c.is_active(client_id))
    }

    /// Advance churn to `t_s`, widen the fleet to any new ids, and return
    /// the churn events passed.
    fn advance_churn(&mut self, t_s: f64) -> Vec<Event> {
        let Some(churn) = self.churn.as_mut() else {
            return Vec::new();
        };
        let events = churn.advance_to(t_s);
        self.fleet.grow(churn.universe());
        events
    }

    /// Open round `round` at `start_s`: advance churn to it and start the
    /// round's tally.
    fn open(&mut self, round: usize, start_s: f64) -> Tally {
        let (joins, leaves) = self.churn_totals();
        self.advance_churn(start_s);
        Tally {
            round,
            start_s,
            joins,
            leaves,
            ..Tally::default()
        }
    }

    /// Decide, before anyone trains, which `selected` clients dispatch. A
    /// departed client reads as a dropout (the server cannot know the
    /// device left); a busy one is skipped with no draw; the rest face the
    /// seeded `(round, client)` dropout draw. `plan` turns a survivor, given
    /// its completion time as a function of keep ratio, into its training
    /// order, or `None` to forgo it unobserved.
    fn admit(
        &mut self,
        tally: &mut Tally,
        selected: &[usize],
        is_busy: impl Fn(usize) -> bool,
        mut plan: impl FnMut(usize, &dyn Fn(f64) -> f64) -> Option<Dispatch>,
    ) -> Vec<Dispatch> {
        let dropout_rng = Rng64::new(self.seed ^ DROPOUT_SALT).derive(tally.round as u64);
        let (diurnal, upload_bytes) = (self.fleet.config().diurnal, self.upload_bytes);
        let start_s = tally.start_s;
        let mut dispatches = Vec::with_capacity(selected.len());
        for &cid in selected {
            if self.departed(cid) {
                tally.dropouts += 1;
                self.stats.entry(cid).dropouts += 1;
                continue;
            }
            let profile = self.fleet.profile(cid);
            if is_busy(cid) {
                tally.busy += 1;
                continue;
            }
            let p = profile.effective_dropout(diurnal.as_ref(), start_s);
            if p > 0.0 && dropout_rng.derive(cid as u64).chance(p) {
                tally.dropouts += 1;
                self.stats.entry(cid).dropouts += 1;
            } else if let Some(d) = plan(cid, &|r| {
                profile.completion_time_at(upload_bytes, r, diurnal.as_ref(), start_s)
            }) {
                self.stats.entry(cid).dispatches += 1;
                dispatches.push(d);
            }
        }
        dispatches
    }

    /// Aggregate `batch` (updates with the version each trained against):
    /// stamp staleness, record telemetry, and advance the version if
    /// anything was aggregated.
    fn account(
        &mut self,
        batch: impl IntoIterator<Item = (ClientUpdate, usize)>,
    ) -> Vec<ClientUpdate> {
        let aggregated: Vec<ClientUpdate> = batch
            .into_iter()
            .map(|(mut u, trained_version)| {
                u.staleness = self.version - trained_version;
                let s = self.stats.entry(u.client_id);
                s.aggregated += 1;
                s.staleness_sum += u.staleness;
                u
            })
            .collect();
        if !aggregated.is_empty() {
            self.version += 1;
        }
        aggregated
    }

    /// Close the round: write the tally, the churn deltas, the aggregated
    /// ids and (if `staleness`) their staleness into the record.
    fn close(&self, tally: Tally, updates: Vec<ClientUpdate>, staleness: bool) -> RoundOutcome {
        let (joins, leaves) = self.churn_totals();
        let hetero = HeteroRoundRecord {
            sim_time_s: tally.sim_time_s,
            dropouts: tally.dropouts,
            stragglers: tally.stragglers,
            carried_in: tally.carried_in,
            busy: tally.busy,
            buffered: tally.buffered,
            joined: joins - tally.joins,
            departed: leaves - tally.leaves,
            masked: tally.masked,
            staleness: if staleness {
                updates.iter().map(|u| u.staleness).collect()
            } else {
                Vec::new()
            },
            aggregated_ids: updates.iter().map(|u| u.client_id).collect(),
        };
        RoundOutcome {
            updates,
            hetero: Some(hetero),
        }
    }
}

/// The [`RoundExecutor`] accessors both executors read off [`FleetCore`].
macro_rules! fleet_core_accessors {
    () => {
        fn fleet(&self) -> Option<&FleetView> {
            Some(&self.core.fleet)
        }

        fn upload_bytes(&self) -> u64 {
            self.core.upload_bytes
        }

        fn reliability(&self) -> Option<&ReliabilityTable> {
            Some(&self.core.stats)
        }

        fn universe(&self) -> Option<usize> {
            self.core.churn.as_ref().map(|c| c.universe())
        }

        fn departed_clients(&self) -> Vec<usize> {
            self.core
                .churn
                .as_ref()
                .map_or_else(Vec::new, |c| c.departed_ids())
        }
    };
}

/// Deadline-bounded rounds over a seeded heterogeneous device fleet.
pub struct DeadlineExecutor {
    core: FleetCore,
    cfg: HeteroConfig,
    participants: usize,
    /// Late updates awaiting a later round, each paired with the model
    /// version it was trained against (only under
    /// [`LatePolicy::CarryOver`]).
    carried: Vec<(ClientUpdate, usize)>,
    /// Virtual seconds since the start of the run — the sum of every
    /// finished round's `sim_time_s`. Rounds replay on a round-local event
    /// queue; churn and diurnal modulation live on this absolute timeline.
    clock_s: f64,
}

impl DeadlineExecutor {
    /// Build the executor over a lazy view of the device fleet (nothing
    /// is materialized up front), pricing each upload by the §3.5
    /// communication model (model weights plus the two scalar losses).
    ///
    /// # Panics
    /// Panics on a non-positive deadline or a degenerate fleet config.
    pub fn new(
        cfg: HeteroConfig,
        n_clients: usize,
        param_count: usize,
        participants: usize,
        seed: u64,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        Self {
            core: FleetCore::new(&cfg.fleet, n_clients, param_count, participants, seed),
            cfg,
            participants,
            carried: Vec::new(),
            clock_s: 0.0,
        }
    }

    /// Per-client upload payload in bytes (model weights + metadata).
    pub fn upload_bytes(&self) -> u64 {
        self.core.upload_bytes
    }

    /// The lazy device-fleet view.
    pub fn fleet(&self) -> &FleetView {
        &self.core.fleet
    }
}

impl RoundExecutor for DeadlineExecutor {
    fleet_core_accessors!();

    fn deadline_s(&self) -> Option<f64> {
        self.cfg.deadline_s
    }

    fn staleness_discount(&self) -> StalenessDiscount {
        self.cfg.staleness
    }

    fn in_flight_clients(&self) -> Vec<usize> {
        // A carried-over update is pending: re-dispatching its client would
        // supersede (discard) it. Always empty under `LatePolicy::Drop`.
        self.carried.iter().map(|(u, _)| u.client_id).collect()
    }

    fn execute(&mut self, round: usize, selected: &[usize], train: &TrainFn<'_>) -> RoundOutcome {
        let deadline = self.cfg.deadline_s.unwrap_or(f64::INFINITY);
        let start_s = self.clock_s;
        let mut tally = self.core.open(round, start_s);

        // --- Admission. A client whose deterministic completion time
        // already exceeds the deadline is a foregone straggler: structured
        // dropout (when configured) shrinks its model until it fits;
        // otherwise, under `Drop` its update would be trained only to be
        // discarded, so skip the training too (under `CarryOver` the
        // update is still needed).
        let (structured, late_policy) = (self.cfg.structured_dropout, self.cfg.late_policy);
        let (mut masked, mut foregone_stragglers) = (0usize, 0usize);
        let alive = self.core.admit(
            &mut tally,
            selected,
            |_| false,
            |cid, completion| {
                if completion(1.0) <= deadline {
                    Some(Dispatch::full(cid))
                } else if let Some(keep_ratio) = structured
                    .as_ref()
                    .and_then(|sd| sd.largest_fitting(deadline, completion))
                {
                    masked += 1;
                    Some(Dispatch {
                        client_id: cid,
                        keep_ratio,
                    })
                } else if late_policy == LatePolicy::Drop {
                    foregone_stragglers += 1;
                    None
                } else {
                    Some(Dispatch::full(cid))
                }
            },
        );
        tally.masked = masked;

        let updates = dispatch_train(train, &alive, self.cfg.parallel_dispatch);

        // --- Discrete-event round: schedule every surviving upload, then
        // replay the timeline against the deadline. Queue sized to this
        // round's dispatch (plus the deadline) — independent of fleet size.
        let mut queue = EventQueue::with_capacity(updates.len() + 1);
        let mut max_completion_s = 0.0f64;
        for (d, u) in alive.iter().zip(&updates) {
            debug_assert_eq!(
                d.client_id, u.client_id,
                "train must preserve dispatch order"
            );
            let completion_s = self.core.completion_s(u.client_id, d.keep_ratio, start_s);
            max_completion_s = max_completion_s.max(completion_s);
            queue.schedule(
                completion_s,
                EventKind::UploadComplete {
                    client_id: u.client_id,
                    version: self.core.version,
                },
            );
        }
        if deadline.is_finite() {
            // Scheduled *after* the uploads: the FIFO tie-break then counts
            // an arrival at exactly the deadline as in time.
            queue.schedule(deadline, EventKind::Deadline);
        }

        // --- Mid-round churn: look ahead over the whole round window so a
        // departure can cancel its client's in-flight upload (the device
        // leaves before the report lands — a straggler the server waits
        // out, never aggregated, never carried). The churn clock then sits
        // at the window's end; rounds that finish early simply re-request
        // that prefix next time (a no-op rewind).
        let horizon_s = if deadline.is_finite() {
            deadline
        } else {
            max_completion_s
        };
        let mut leave_at: BTreeMap<usize, f64> = BTreeMap::new();
        for ev in self.core.advance_churn(start_s + horizon_s) {
            if let EventKind::ClientLeave { client_id } = ev.kind {
                leave_at.entry(client_id).or_insert(ev.time_s);
            }
        }

        let mut clock = VirtualClock::new();
        let mut arrived_ids = Vec::new();
        let mut last_arrival_s = 0.0f64;
        let mut deadline_fired = false;
        while let Some(event) = queue.pop() {
            clock.advance_to(event.time_s);
            match event.kind {
                EventKind::UploadComplete { client_id, .. } if !deadline_fired => {
                    // A departure strictly before the arrival instant
                    // cancels the upload; leaving at the exact arrival
                    // moment still delivers it.
                    let canceled = leave_at
                        .get(&client_id)
                        .is_some_and(|&t| t < start_s + event.time_s);
                    if !canceled {
                        arrived_ids.push(client_id);
                        last_arrival_s = clock.now_s();
                    }
                }
                EventKind::UploadComplete { .. } => {} // straggler: drained below
                EventKind::Deadline => deadline_fired = true,
                EventKind::ClientJoin { .. } | EventKind::ClientLeave { .. } => {
                    unreachable!("churn events are consumed by ChurnProcess, never queued here")
                }
            }
        }
        tally.stragglers = foregone_stragglers + (updates.len() - arrived_ids.len());

        // The server waits until the deadline whenever a sampled report is
        // missing (it cannot know the client dropped); otherwise the round
        // ends when the last expected upload lands. With an unbounded
        // deadline, dropouts are assumed to notify failure, so the round
        // still ends at the last arrival.
        tally.sim_time_s = if deadline.is_finite() && (tally.stragglers > 0 || tally.dropouts > 0) {
            deadline
        } else {
            last_arrival_s
        };
        self.clock_s = start_s + tally.sim_time_s;

        // --- Split arrivals from stragglers, keeping sampling order (so an
        // unbounded no-dropout round reduces exactly to the ideal one).
        let (arrived, late): (Vec<_>, Vec<_>) = updates
            .into_iter()
            .partition(|u| arrived_ids.contains(&u.client_id));

        // --- Carry-in: stale updates fill the round's spare capacity,
        // oldest first (their staleness drives the session's impact-factor
        // discount). A fresh arrival discards its client's stale copy;
        // stale updates that find no capacity stay queued for a later,
        // shorter round. Always empty under `LatePolicy::Drop`.
        self.carried
            .retain(|(s, _)| !arrived.iter().any(|u| u.client_id == s.client_id));
        let room = self.participants.saturating_sub(arrived.len());
        let mut batch: Vec<_> = self.carried.drain(..room.min(self.carried.len())).collect();
        tally.carried_in = batch.len();
        let version = self.core.version;
        batch.extend(arrived.into_iter().map(|u| (u, version)));
        if late_policy == LatePolicy::CarryOver {
            // A newer late report supersedes its client's queued copy. A
            // departed client's late upload never reached the server, so
            // there is nothing to queue (its telemetry simply goes stale).
            for u in late {
                if !self.core.departed(u.client_id) {
                    self.carried.retain(|(s, _)| s.client_id != u.client_id);
                    self.carried.push((u, version));
                }
            }
            // Bound staleness: keep only the K most recent queued updates —
            // an unboundedly stale update would poison the aggregate.
            let excess = self.carried.len().saturating_sub(self.participants);
            self.carried.drain(..excess);
        }

        // Per-update ages are recorded only when something stale was
        // aggregated (all-fresh rounds keep the pre-staleness JSON shape).
        let record_staleness = tally.carried_in > 0;
        let aggregated = self.core.account(batch);
        self.core.close(tally, aggregated, record_staleness)
    }
}

/// Buffered asynchronous aggregation over a seeded heterogeneous fleet
/// (FedAsync/FedBuff-style): no round barrier, persistent virtual time.
///
/// The [`VirtualClock`] and [`EventQueue`] live across `execute` calls.
/// Each call dispatches the newly sampled clients against the current
/// model version, then pops arrivals — possibly dispatched in earlier
/// rounds — until the buffer holds exactly `buffer_size` updates, which
/// are aggregated; if it cannot fill, *nothing* is aggregated and the
/// partial buffer persists. A client whose previous upload is still in
/// flight *or parked in the buffer* is busy and skipped, so no
/// aggregation double-counts one client's data.
pub struct BufferedExecutor {
    core: FleetCore,
    cfg: BufferedConfig,
    /// Virtual time since the start of the *run* (not the round).
    clock: VirtualClock,
    /// Pending upload completions, across model versions.
    queue: EventQueue,
    /// Dispatched updates whose uploads have not completed yet, each with
    /// the model version it trains against.
    in_flight: Vec<(ClientUpdate, usize)>,
    /// Arrived updates awaiting the buffer to fill, in arrival order,
    /// each with the model version it was trained against. Never holds
    /// `buffer_size` or more entries between rounds.
    buffer: Vec<(ClientUpdate, usize)>,
}

impl BufferedExecutor {
    /// Build the executor like [`DeadlineExecutor::new`].
    ///
    /// # Panics
    /// Panics on a config [`BufferedConfig::validate`] rejects (zero or
    /// over-wide buffer, invalid discount, degenerate fleet).
    pub fn new(
        cfg: BufferedConfig,
        n_clients: usize,
        param_count: usize,
        participants: usize,
        seed: u64,
    ) -> Self {
        if let Err(e) = cfg.validate(participants) {
            panic!("{e}");
        }
        Self {
            core: FleetCore::new(&cfg.fleet, n_clients, param_count, participants, seed),
            cfg,
            clock: VirtualClock::new(),
            // At most `participants` uploads are ever pending: sized once,
            // steady-state scheduling never reallocates, whatever N is.
            queue: EventQueue::with_capacity(participants + 1),
            in_flight: Vec::new(),
            buffer: Vec::new(),
        }
    }

    /// Per-client upload payload in bytes (model weights + metadata).
    pub fn upload_bytes(&self) -> u64 {
        self.core.upload_bytes
    }

    /// The lazy device-fleet view.
    pub fn fleet(&self) -> &FleetView {
        &self.core.fleet
    }

    /// Updates dispatched but not yet arrived at the server.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Arrived updates waiting for the buffer to fill.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

impl RoundExecutor for BufferedExecutor {
    fleet_core_accessors!();

    fn staleness_discount(&self) -> StalenessDiscount {
        self.cfg.staleness
    }

    fn server_mix(&self) -> f64 {
        self.cfg.server_mix.unwrap_or(1.0)
    }

    fn in_flight_clients(&self) -> Vec<usize> {
        // Read straight off the live event state: uploads still traveling
        // plus reports parked in the partial buffer — both make their
        // client "busy" at the next dispatch.
        self.in_flight
            .iter()
            .chain(self.buffer.iter())
            .map(|(u, _)| u.client_id)
            .collect()
    }

    fn execute(&mut self, round: usize, selected: &[usize], train: &TrainFn<'_>) -> RoundOutcome {
        let start_s = self.clock.now_s();
        let mut tally = self.core.open(round, start_s);

        // --- Dispatch: skip busy devices (still uploading an earlier
        // version, or with an unconsumed report parked in the buffer —
        // redispatching those would let one client fill several slots of
        // a single aggregation) and start everyone admitted training
        // against the current model version.
        let busy: Vec<usize> = self.in_flight_clients();
        let alive = self.core.admit(
            &mut tally,
            selected,
            |cid| busy.contains(&cid),
            |cid, _| Some(Dispatch::full(cid)),
        );
        let version = self.core.version;
        for u in dispatch_train(train, &alive, self.cfg.parallel_dispatch) {
            let arrival_s = start_s + self.core.completion_s(u.client_id, 1.0, start_s);
            let kind = EventKind::UploadComplete {
                client_id: u.client_id,
                version,
            };
            self.queue.schedule(arrival_s, kind);
            self.in_flight.push((u, version));
        }

        // --- Drain arrivals (possibly from earlier versions) until the
        // buffer fills; stop immediately at `buffer_size` so later
        // arrivals stay queued for the next aggregation. The churn
        // timeline advances in lock-step with the clock: an upload whose
        // client departed before it landed is lost in transit — counted a
        // straggler, never buffered.
        while self.buffer.len() < self.cfg.buffer_size {
            let Some(event) = self.queue.pop() else { break };
            self.clock.advance_to(event.time_s);
            let EventKind::UploadComplete { client_id, version } = event.kind else {
                unreachable!("buffered executor schedules no deadline or churn events");
            };
            let idx = self
                .in_flight
                .iter()
                .position(|(u, v)| u.client_id == client_id && *v == version)
                .expect("upload event without a matching in-flight update");
            let arrival = self.in_flight.swap_remove(idx);
            self.core.advance_churn(event.time_s);
            if self.core.departed(client_id) {
                tally.stragglers += 1;
            } else {
                self.buffer.push(arrival);
            }
        }

        // --- Aggregate exactly `buffer_size` updates, or nothing: a
        // partial buffer persists (the server keeps waiting while the
        // session records an empty round).
        let aggregated = if self.buffer.len() == self.cfg.buffer_size {
            self.core.account(self.buffer.drain(..))
        } else {
            Vec::new()
        };
        tally.sim_time_s = self.clock.now_s() - start_s;
        tally.buffered = self.buffer.len();
        self.core.close(tally, aggregated, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A weightless update for client `cid` (executor logic never touches
    /// the payload).
    fn stub_update(cid: usize) -> ClientUpdate {
        ClientUpdate {
            client_id: cid,
            weights: vec![0.0; 4],
            n_samples: 10 + cid,
            loss_before: 1.0,
            loss_after: 0.5,
            staleness: 0,
            mask: None,
        }
    }

    fn stub_train(dispatches: &[Dispatch]) -> Vec<ClientUpdate> {
        dispatches
            .iter()
            .map(|d| stub_update(d.client_id))
            .collect()
    }

    fn skewed_cfg(deadline_s: Option<f64>, dropout: f64) -> HeteroConfig {
        HeteroConfig {
            fleet: FleetConfig {
                compute_skew: 4.0,
                bandwidth_skew: 2.0,
                dropout,
                ..Default::default()
            },
            deadline_s,
            late_policy: LatePolicy::Drop,
            ..Default::default()
        }
    }

    #[test]
    fn ideal_executor_is_a_passthrough() {
        let selected = [3usize, 1, 4];
        let out = IdealExecutor.execute(0, &selected, &stub_train);
        assert!(out.hetero.is_none());
        let ids: Vec<usize> = out.updates.iter().map(|u| u.client_id).collect();
        assert_eq!(ids, vec![3, 1, 4]);
    }

    #[test]
    fn unbounded_round_time_is_max_of_completions() {
        let mut ex = DeadlineExecutor::new(skewed_cfg(None, 0.0), 8, 1000, 8, 7);
        let selected: Vec<usize> = (0..8).collect();
        let out = ex.execute(0, &selected, &stub_train);
        let h = out.hetero.unwrap();
        let expected = (0..8)
            .map(|c| ex.fleet().profile(c).completion_time_s(ex.upload_bytes()))
            .fold(0.0f64, f64::max);
        assert!((h.sim_time_s - expected).abs() < 1e-12);
        assert_eq!(h.stragglers, 0);
        assert_eq!(h.dropouts, 0);
        assert_eq!(h.aggregated(), 8);
        assert_eq!(out.updates.len(), 8);
    }

    #[test]
    fn tight_deadline_cuts_stragglers_and_caps_round_time() {
        let cfg = skewed_cfg(None, 0.0);
        let probe = DeadlineExecutor::new(cfg.clone(), 16, 1000, 16, 7);
        // Deadline at the fleet median: roughly half the devices miss it.
        let deadline = probe
            .fleet()
            .completion_percentile_s(probe.upload_bytes(), 0.5);
        let mut ex = DeadlineExecutor::new(
            HeteroConfig {
                deadline_s: Some(deadline),
                ..cfg
            },
            16,
            1000,
            16,
            7,
        );
        let selected: Vec<usize> = (0..16).collect();
        let out = ex.execute(0, &selected, &stub_train);
        let h = out.hetero.unwrap();
        assert!(h.stragglers > 0, "median deadline produced no stragglers");
        assert!(h.aggregated() < 16);
        assert_eq!(h.aggregated() + h.stragglers, 16);
        assert_eq!(h.sim_time_s, deadline);
        // Exactly the in-time devices arrived.
        for u in &out.updates {
            let t = ex
                .fleet()
                .profile(u.client_id)
                .completion_time_s(ex.upload_bytes());
            assert!(
                t <= deadline,
                "straggler {t} leaked past deadline {deadline}"
            );
        }
    }

    #[test]
    fn dropouts_are_deterministic_and_reduce_participation() {
        let mk = || DeadlineExecutor::new(skewed_cfg(None, 0.5), 10, 500, 10, 21);
        let selected: Vec<usize> = (0..10).collect();
        let (mut a, mut b) = (mk(), mk());
        let (oa, ob) = (
            a.execute(3, &selected, &stub_train),
            b.execute(3, &selected, &stub_train),
        );
        let (ha, hb) = (oa.hetero.unwrap(), ob.hetero.unwrap());
        assert_eq!(ha, hb, "same seed must reproduce the same dropouts");
        assert!(ha.dropouts > 0, "p=0.5 over 10 clients drew no dropout");
        assert_eq!(ha.aggregated() + ha.dropouts, 10);
        // A different round draws a different pattern eventually.
        let oc = a.execute(4, &selected, &stub_train);
        assert!(oc.hetero.unwrap().aggregated() <= 10);
    }

    #[test]
    fn carry_over_reinjects_late_updates_next_round() {
        let cfg = skewed_cfg(None, 0.0);
        let probe = DeadlineExecutor::new(cfg.clone(), 12, 1000, 6, 7);
        let deadline = probe
            .fleet()
            .completion_percentile_s(probe.upload_bytes(), 0.4);
        let mut ex = DeadlineExecutor::new(
            HeteroConfig {
                deadline_s: Some(deadline),
                late_policy: LatePolicy::CarryOver,
                ..cfg
            },
            12,
            1000,
            6,
            7,
        );
        // Round 0: slowest 6 clients — some miss the deadline.
        let first: Vec<usize> = (0..6).collect();
        let o0 = ex.execute(0, &first, &stub_train);
        let h0 = o0.hetero.unwrap();
        assert!(h0.stragglers > 0, "deadline cut nobody");
        // Round 1: disjoint clients; the stale updates ride along.
        let second: Vec<usize> = (6..12).collect();
        let o1 = ex.execute(1, &second, &stub_train);
        let h1 = o1.hetero.unwrap();
        assert_eq!(h1.carried_in.min(1), 1, "no stale update carried in");
        assert!(h1.aggregated() <= 6, "carry-over exceeded participant cap");
        let carried_ids: Vec<usize> = o1
            .updates
            .iter()
            .map(|u| u.client_id)
            .filter(|c| *c < 6)
            .collect();
        assert_eq!(carried_ids.len(), h1.carried_in);
    }

    #[test]
    fn queued_stale_update_waits_for_a_round_with_capacity() {
        // Homogeneous fleet, deadline below everyone's completion time:
        // every sampled client straggles and is queued under CarryOver.
        let cfg = HeteroConfig {
            fleet: FleetConfig::default(), // identical devices, ~10 s rounds
            deadline_s: Some(1.0),
            late_policy: LatePolicy::CarryOver,
            ..Default::default()
        };
        let mut ex = DeadlineExecutor::new(cfg, 8, 1000, 2, 7);
        // Round 0: clients 0, 1 straggle and are queued.
        let o0 = ex.execute(0, &[0, 1], &stub_train);
        assert_eq!(o0.hetero.unwrap().stragglers, 2);
        assert!(o0.updates.is_empty());
        // Their late updates now wait server-side: selection policies
        // must see them as pending so re-dispatch (which would supersede
        // the queued work) is a last resort.
        assert_eq!(RoundExecutor::in_flight_clients(&ex), vec![0, 1]);
        // Round 1: clients 2, 3 also straggle — zero fresh arrivals, so
        // the two queued updates finally fill the round's capacity.
        let o1 = ex.execute(1, &[2, 3], &stub_train);
        let h1 = o1.hetero.unwrap();
        assert_eq!(h1.carried_in, 2);
        assert_eq!(h1.aggregated_ids, vec![0, 1]);
        assert_eq!(
            RoundExecutor::in_flight_clients(&ex),
            vec![2, 3],
            "consumed carried updates must leave the pending set"
        );
        // Round 2: the newer stale updates (2, 3) ride in next — nothing
        // was silently discarded while capacity was available.
        let o2 = ex.execute(2, &[4, 5], &stub_train);
        assert_eq!(o2.hetero.unwrap().aggregated_ids, vec![2, 3]);
    }

    #[test]
    fn all_dropped_round_yields_no_updates() {
        let mut cfg = skewed_cfg(Some(1e6), 0.0);
        cfg.fleet.dropout = 0.999_999;
        let mut ex = DeadlineExecutor::new(cfg, 5, 100, 5, 3);
        let out = ex.execute(0, &[0, 1, 2, 3, 4], &stub_train);
        let h = out.hetero.unwrap();
        assert_eq!(h.dropouts, 5);
        assert_eq!(h.aggregated(), 0);
        assert!(out.updates.is_empty());
        assert_eq!(h.sim_time_s, 1e6, "server waits out the deadline");
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn rejects_non_positive_deadline() {
        let _ = DeadlineExecutor::new(skewed_cfg(Some(0.0), 0.0), 4, 10, 4, 1);
    }

    #[test]
    fn discount_is_one_at_zero_staleness_and_monotone() {
        let discounts = [
            StalenessDiscount::None,
            StalenessDiscount::Polynomial { alpha: 0.5 },
            StalenessDiscount::Polynomial { alpha: 2.0 },
            StalenessDiscount::Hinge { cutoff: 2 },
        ];
        for d in discounts {
            assert_eq!(d.factor(0), 1.0, "{d:?} not exactly 1 at s = 0");
            let mut prev = 1.0f32;
            for s in 1..20 {
                let f = d.factor(s);
                assert!(f > 0.0, "{d:?} hit zero at s = {s}");
                assert!(f <= prev, "{d:?} not non-increasing at s = {s}");
                prev = f;
            }
        }
        assert!((StalenessDiscount::Polynomial { alpha: 1.0 }.factor(2) - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(StalenessDiscount::Hinge { cutoff: 2 }.factor(2), 1.0);
        assert!((StalenessDiscount::Hinge { cutoff: 2 }.factor(3) - 0.5).abs() < 1e-6);
        // An aggressive exponent underflows f32 but must clamp above zero:
        // an all-stale aggregation still normalizes onto the simplex.
        let harsh = StalenessDiscount::Polynomial { alpha: 100.0 };
        assert!(harsh.factor(2) > 0.0, "discount underflowed to exact zero");
        let alphas = crate::strategy::normalize_factors(&[harsh.factor(2), harsh.factor(2)]);
        assert_eq!(alphas, vec![0.5, 0.5]);
    }

    #[test]
    fn discount_validation_rejects_bad_polynomial() {
        for alpha in [f64::NAN, f64::INFINITY, -0.5] {
            let err = StalenessDiscount::Polynomial { alpha }.validate().err();
            assert!(
                matches!(err, Some(crate::error::FlError::InvalidDiscount { .. })),
                "alpha = {alpha} accepted"
            );
        }
        StalenessDiscount::Polynomial { alpha: 0.0 }
            .validate()
            .unwrap();
        StalenessDiscount::Hinge { cutoff: 0 }.validate().unwrap();
        StalenessDiscount::None.validate().unwrap();
    }

    /// Regression for the ROADMAP staleness-weighting item: a carried
    /// update two rounds stale must contribute *less* to the aggregate
    /// than a fresh arrival of equal raw weight.
    #[test]
    fn carried_update_two_rounds_stale_is_discounted_below_fresh() {
        let base = skewed_cfg(None, 0.0);
        let probe = DeadlineExecutor::new(base.clone(), 16, 1000, 2, 7);
        let deadline = probe
            .fleet()
            .completion_percentile_s(probe.upload_bytes(), 0.5);
        let mut ex = DeadlineExecutor::new(
            HeteroConfig {
                deadline_s: Some(deadline),
                late_policy: LatePolicy::CarryOver,
                staleness: StalenessDiscount::Polynomial { alpha: 1.0 },
                ..base
            },
            16,
            1000,
            2,
            7,
        );
        let in_time = |ex: &DeadlineExecutor, c: usize| {
            ex.fleet().profile(c).completion_time_s(ex.upload_bytes()) <= deadline
        };
        let fast: Vec<usize> = (0..16).filter(|&c| in_time(&ex, c)).collect();
        let slow: Vec<usize> = (0..16).filter(|&c| !in_time(&ex, c)).collect();
        assert!(
            fast.len() >= 3 && slow.len() >= 2,
            "median deadline must split the fleet"
        );

        // Round 0: two stragglers get queued, trained against model
        // version 0 (nothing aggregates, so the version stays 0).
        let o0 = ex.execute(0, &[slow[0], slow[1]], &stub_train);
        assert_eq!(o0.hetero.unwrap().stragglers, 2);
        assert!(o0.updates.is_empty());
        // Rounds 1 and 2: two fresh arrivals each fill the capacity — the
        // stale updates wait while the global advances to version 2.
        for round in [1, 2] {
            let o = ex.execute(round, &[fast[0], fast[1]], &stub_train);
            assert_eq!(o.hetero.unwrap().carried_in, 0);
        }
        // Round 3: one fresh arrival leaves one slot; the oldest stale
        // update rides in, now two model versions behind.
        let o3 = ex.execute(3, &[fast[2]], &stub_train);
        let h3 = o3.hetero.unwrap();
        assert_eq!(h3.carried_in, 1);
        assert_eq!(o3.updates.len(), 2);
        let stale = &o3.updates[0];
        let fresh = &o3.updates[1];
        assert_eq!((stale.client_id, stale.staleness), (slow[0], 2));
        assert_eq!(fresh.staleness, 0);
        assert_eq!(h3.staleness, vec![2, 0]);

        // Apply the discount exactly the way the session loop does: equal
        // raw factors end up tilted toward the fresh update.
        let d = ex.staleness_discount();
        let discounted = [d.factor(stale.staleness), d.factor(fresh.staleness)];
        let alphas = crate::strategy::normalize_factors(&discounted);
        assert!(
            alphas[0] < alphas[1],
            "2-round-stale update ({}) not discounted below fresh ({})",
            alphas[0],
            alphas[1]
        );
        assert!(
            (alphas[0] - 0.25).abs() < 1e-6,
            "1/(1+2) vs 1 should normalize to 1/4"
        );
    }

    fn buffered_cfg(skew: f64, m: usize) -> BufferedConfig {
        BufferedConfig {
            fleet: FleetConfig {
                compute_skew: skew,
                ..Default::default()
            },
            buffer_size: m,
            ..Default::default()
        }
    }

    #[test]
    fn full_buffer_on_homogeneous_fleet_behaves_synchronously() {
        let mut ex = BufferedExecutor::new(buffered_cfg(1.0, 4), 8, 1000, 4, 7);
        let step = ex.fleet().profile(0).completion_time_s(ex.upload_bytes());
        for round in 0..3 {
            let selected = [0usize, 3, 1, 2];
            let out = ex.execute(round, &selected, &stub_train);
            let h = out.hetero.unwrap();
            let ids: Vec<usize> = out.updates.iter().map(|u| u.client_id).collect();
            assert_eq!(ids, vec![0, 3, 1, 2], "round {round}: not sampling order");
            assert!(out.updates.iter().all(|u| u.staleness == 0));
            assert_eq!(h.staleness, vec![0; 4]);
            assert_eq!(h.busy, 0);
            assert_eq!(h.buffered, 0);
            assert!((h.sim_time_s - step).abs() < 1e-9, "round {round} time");
        }
        assert_eq!(ex.in_flight(), 0);
    }

    #[test]
    fn small_buffer_aggregates_fastest_arrivals_and_marks_staleness() {
        let mut ex = BufferedExecutor::new(buffered_cfg(8.0, 2), 4, 1000, 4, 7);
        let completion = |ex: &BufferedExecutor, c: usize| {
            ex.fleet().profile(c).completion_time_s(ex.upload_bytes())
        };
        let mut order: Vec<usize> = (0..4).collect();
        order.sort_by(|&a, &b| completion(&ex, a).total_cmp(&completion(&ex, b)));

        let out = ex.execute(0, &[0, 1, 2, 3], &stub_train);
        let h = out.hetero.unwrap();
        let ids: Vec<usize> = out.updates.iter().map(|u| u.client_id).collect();
        assert_eq!(
            ids,
            order[..2].to_vec(),
            "buffer must fill with the fastest uploads"
        );
        assert!((h.sim_time_s - completion(&ex, order[1])).abs() < 1e-9);
        assert_eq!(ex.in_flight(), 2, "slow updates stay in flight");

        // Next round redispatches only idle devices; the leftover uploads
        // from version 0 fill the buffer with positive staleness.
        let out1 = ex.execute(1, &[0, 1, 2, 3], &stub_train);
        let h1 = out1.hetero.unwrap();
        assert_eq!(h1.busy, 2, "in-flight devices must be skipped");
        assert_eq!(out1.updates.len(), 2);
        assert!(
            out1.updates.iter().any(|u| u.staleness > 0),
            "a version-0 upload aggregated at version 1 must be stale"
        );
        assert_eq!(
            h1.staleness,
            out1.updates.iter().map(|u| u.staleness).collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_buffered_aggregation_has_exactly_buffer_size_updates() {
        let mut cfg = buffered_cfg(4.0, 3);
        cfg.fleet.dropout = 0.4;
        let mut ex = BufferedExecutor::new(cfg, 10, 500, 5, 21);
        let mut dispatched = 0usize;
        let mut aggregated = 0usize;
        let mut nonempty = 0usize;
        for round in 0..12 {
            let selected: Vec<usize> = (0..10).filter(|c| (c + round) % 2 == 0).collect();
            let out = ex.execute(round, &selected, &stub_train);
            let h = out.hetero.unwrap();
            dispatched += selected.len() - h.dropouts - h.busy;
            assert!(
                out.updates.is_empty() || out.updates.len() == 3,
                "round {round}: aggregation of {} != buffer size",
                out.updates.len()
            );
            if !out.updates.is_empty() {
                nonempty += 1;
            }
            aggregated += out.updates.len();
        }
        assert!(nonempty > 0, "no aggregation ever fired");
        assert_eq!(aggregated, 3 * nonempty);
        assert_eq!(
            dispatched,
            aggregated + ex.in_flight() + ex.buffered(),
            "dispatch accounting must close"
        );
    }

    #[test]
    fn ideal_executor_reports_no_reliability_telemetry() {
        let ex = IdealExecutor;
        assert!(RoundExecutor::reliability(&ex).is_none());
        assert!(RoundExecutor::in_flight_clients(&ex).is_empty());
    }

    #[test]
    fn deadline_telemetry_accounts_for_every_sample() {
        let mut ex = DeadlineExecutor::new(skewed_cfg(None, 0.4), 10, 500, 10, 21);
        let selected: Vec<usize> = (0..10).collect();
        let mut total_dropouts = 0;
        for round in 0..20 {
            let out = ex.execute(round, &selected, &stub_train);
            total_dropouts += out.hetero.unwrap().dropouts;
        }
        let stats = RoundExecutor::reliability(&ex).expect("deadline executor records telemetry");
        assert_eq!(stats.observed(), 10, "every sampled client was observed");
        let mut dropouts = 0;
        for (cid, s) in stats.iter() {
            // Unbounded deadline: every sample either drops or trains.
            assert_eq!(s.dropouts + s.dispatches, 20, "client {cid} samples lost");
            assert_eq!(s.aggregated, s.dispatches, "client {cid} updates lost");
            assert!((0.0..=1.0).contains(&s.dropout_rate()));
            dropouts += s.dropouts;
        }
        assert_eq!(
            dropouts, total_dropouts,
            "per-client dropouts disagree with telemetry"
        );
        // p = 0.4 over 200 samples: the observed rates must spread around
        // the configured one rather than collapse to 0 or 1.
        let mean_rate: f64 = stats.iter().map(|(_, s)| s.dropout_rate()).sum::<f64>() / 10.0;
        assert!(
            (0.15..0.65).contains(&mean_rate),
            "implausible mean rate {mean_rate}"
        );
        // Round-barrier executor: nothing is ever in flight between rounds.
        assert!(RoundExecutor::in_flight_clients(&ex).is_empty());
    }

    #[test]
    fn buffered_in_flight_accessor_reads_the_live_queue() {
        let mut ex = BufferedExecutor::new(buffered_cfg(8.0, 2), 4, 1000, 4, 7);
        let out = ex.execute(0, &[0, 1, 2, 3], &stub_train);
        assert_eq!(out.updates.len(), 2);
        let in_flight = RoundExecutor::in_flight_clients(&ex);
        assert_eq!(in_flight.len(), ex.in_flight() + ex.buffered());
        // The two slow uploads still traveling are exactly the sampled
        // clients whose updates did not aggregate.
        let aggregated: Vec<usize> = out.updates.iter().map(|u| u.client_id).collect();
        for cid in 0..4usize {
            assert_eq!(
                in_flight.contains(&cid),
                !aggregated.contains(&cid),
                "client {cid} in-flight state wrong"
            );
        }
        // Telemetry: everyone was dispatched once, the fast pair aggregated.
        let stats = RoundExecutor::reliability(&ex).unwrap();
        assert_eq!(stats.observed(), 4);
        for (cid, s) in stats.iter() {
            assert_eq!(s.dispatches, 1);
            assert_eq!(s.aggregated, usize::from(aggregated.contains(&cid)));
        }
    }

    /// Sparse telemetry: an unobserved client reads as the zero record,
    /// resident entries track *observed* clients only, and totals close.
    #[test]
    fn reliability_table_is_sparse_over_observed_clients() {
        let mut ex = DeadlineExecutor::new(skewed_cfg(None, 0.0), 1_000, 500, 4, 21);
        let out = ex.execute(0, &[3, 900, 17], &stub_train);
        assert_eq!(out.updates.len(), 3);
        let stats = RoundExecutor::reliability(&ex).unwrap();
        assert_eq!(
            stats.observed(),
            3,
            "telemetry must be resident only for dispatched clients"
        );
        assert_eq!(stats.get(3).dispatches, 1);
        assert_eq!(stats.get(900).aggregated, 1);
        assert_eq!(stats.get(999), ClientReliability::default());
        let ids: Vec<usize> = stats.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![3, 17, 900], "iteration must be id-ordered");
        let t = stats.totals();
        assert_eq!((t.dispatches, t.aggregated, t.dropouts), (3, 3, 0));
    }

    /// Parallel dispatch must reproduce the serial outcome bit-for-bit on
    /// both executor families (the train stub maps clients independently,
    /// as the session's per-client RNG streams do).
    #[test]
    fn parallel_dispatch_is_bit_identical_to_serial() {
        let run_deadline = |parallel: bool| {
            let cfg = HeteroConfig {
                parallel_dispatch: parallel,
                ..skewed_cfg(None, 0.3)
            };
            let mut ex = DeadlineExecutor::new(cfg, 32, 500, 8, 9);
            (0..6)
                .map(|round| {
                    let selected: Vec<usize> = (0..32).filter(|c| (c + round) % 4 == 0).collect();
                    let out = ex.execute(round, &selected, &stub_train);
                    (
                        out.updates
                            .iter()
                            .map(|u| (u.client_id, u.staleness))
                            .collect::<Vec<_>>(),
                        out.hetero.unwrap(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run_deadline(false), run_deadline(true));

        let run_buffered = |parallel: bool| {
            let mut cfg = buffered_cfg(4.0, 3);
            cfg.fleet.dropout = 0.2;
            cfg.parallel_dispatch = parallel;
            let mut ex = BufferedExecutor::new(cfg, 32, 500, 8, 9);
            (0..10)
                .map(|round| {
                    let selected: Vec<usize> = (0..32).filter(|c| (c + round) % 4 == 0).collect();
                    let out = ex.execute(round, &selected, &stub_train);
                    (
                        out.updates
                            .iter()
                            .map(|u| (u.client_id, u.staleness))
                            .collect::<Vec<_>>(),
                        out.hetero.unwrap(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run_buffered(false), run_buffered(true));
    }

    #[test]
    fn reliability_rates_default_to_zero_when_unobserved() {
        let s = ClientReliability::default();
        assert_eq!(s.dropout_rate(), 0.0);
        assert_eq!(s.mean_staleness(), 0.0);
        let s = ClientReliability {
            dropouts: 3,
            dispatches: 1,
            aggregated: 2,
            staleness_sum: 5,
        };
        assert!((s.dropout_rate() - 0.75).abs() < 1e-12);
        assert!((s.mean_staleness() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn structured_dropout_rescues_foregone_stragglers_as_sub_models() {
        let base = skewed_cfg(None, 0.0);
        let probe = DeadlineExecutor::new(base.clone(), 16, 1000, 16, 7);
        let deadline = probe
            .fleet()
            .completion_percentile_s(probe.upload_bytes(), 0.5);
        let run = |sd: Option<StructuredDropoutConfig>| {
            let mut ex = DeadlineExecutor::new(
                HeteroConfig {
                    deadline_s: Some(deadline),
                    structured_dropout: sd,
                    ..base.clone()
                },
                16,
                1000,
                16,
                7,
            );
            let selected: Vec<usize> = (0..16).collect();
            ex.execute(0, &selected, &stub_train).hetero.unwrap()
        };
        let plain = run(None);
        assert!(plain.stragglers > 0, "median deadline cut nobody");
        assert_eq!(plain.masked, 0);
        let adaptive = run(Some(StructuredDropoutConfig::default()));
        assert!(adaptive.masked > 0, "no straggler was offered a sub-model");
        // Every rescued sub-model was sized to fit the deadline, so each
        // one lands as an extra aggregated update.
        assert_eq!(adaptive.aggregated(), plain.aggregated() + adaptive.masked);
        assert_eq!(
            adaptive.stragglers + adaptive.masked,
            plain.stragglers,
            "rescues must come one-for-one out of the straggler count"
        );
    }

    #[test]
    fn structured_dropout_config_validates_its_grid() {
        use crate::error::FlError;
        assert!(StructuredDropoutConfig::default().validate().is_ok());
        for bad in [0.0, 1.0, -0.5, f64::NAN] {
            let cfg = StructuredDropoutConfig {
                min_ratio: bad,
                levels: 4,
            };
            assert!(
                matches!(cfg.validate(), Err(FlError::InvalidDynamics { .. })),
                "min_ratio {bad} accepted"
            );
        }
        let cfg = StructuredDropoutConfig {
            min_ratio: 0.5,
            levels: 0,
        };
        assert!(matches!(
            cfg.validate(),
            Err(FlError::InvalidDynamics { .. })
        ));
        // The grid is largest-first, strictly below 1, floored at min_ratio.
        let ratios: Vec<f64> = StructuredDropoutConfig::default().ratios_desc().collect();
        assert_eq!(ratios, vec![0.8125, 0.625, 0.4375, 0.25]);
    }

    #[test]
    fn churned_out_clients_waste_their_dispatch_as_dropouts() {
        use feddrl_sim::device::ChurnConfig;
        let mut cfg = skewed_cfg(Some(12.0), 0.0);
        cfg.fleet.churn = Some(ChurnConfig {
            mean_arrival_gap_s: 1e18,
            mean_departure_gap_s: 2.0,
        });
        let mut ex = DeadlineExecutor::new(cfg, 8, 1000, 8, 7);
        let selected: Vec<usize> = (0..8).collect();
        let h0 = ex.execute(0, &selected, &stub_train).hetero.unwrap();
        // The 12 s round window ticked the churn clock forward: with a 2 s
        // mean departure gap several devices left during the round.
        let departed = RoundExecutor::departed_clients(&ex);
        assert!(!departed.is_empty(), "no departures in a 12 s window");
        assert_eq!(h0.departed, departed.len());
        assert_eq!(h0.joined, 0);
        assert_eq!(RoundExecutor::universe(&ex), Some(8), "no arrivals");
        // Re-sampling the departed clients wastes every slot as a dropout
        // — the server only learns of a departure by dispatches that stop
        // answering, which is exactly what the telemetry records.
        let before: usize = departed
            .iter()
            .map(|&c| ex.core.stats.get(c).dropouts)
            .sum();
        let o1 = ex.execute(1, &departed, &stub_train);
        let h1 = o1.hetero.unwrap();
        assert_eq!(h1.dropouts, departed.len());
        assert!(o1.updates.is_empty());
        let after: usize = departed
            .iter()
            .map(|&c| ex.core.stats.get(c).dropouts)
            .sum();
        assert_eq!(after - before, departed.len());
    }

    #[test]
    fn churn_arrivals_grow_the_universe_and_become_selectable() {
        use feddrl_sim::device::ChurnConfig;
        let mut cfg = skewed_cfg(None, 0.0);
        cfg.fleet.churn = Some(ChurnConfig {
            mean_arrival_gap_s: 3.0,
            mean_departure_gap_s: 1e18,
        });
        let mut ex = DeadlineExecutor::new(cfg, 4, 1000, 8, 7);
        let h0 = ex.execute(0, &[0, 1, 2, 3], &stub_train).hetero.unwrap();
        let universe = RoundExecutor::universe(&ex).unwrap();
        assert!(universe > 4, "no arrivals over a multi-second round");
        assert_eq!(h0.joined, universe - 4);
        assert!(RoundExecutor::departed_clients(&ex).is_empty());
        // A minted id is immediately selectable: its profile derives on
        // demand and it trains like any founding client.
        let newcomer = universe - 1;
        let o1 = ex.execute(1, &[newcomer], &stub_train);
        assert_eq!(o1.updates.len(), 1);
        assert_eq!(o1.updates[0].client_id, newcomer);
        assert_eq!(ex.core.stats.get(newcomer).dispatches, 1);
    }

    #[test]
    fn buffered_dispatch_accounting_closes_under_churn() {
        use feddrl_sim::device::ChurnConfig;
        let mut cfg = buffered_cfg(4.0, 2);
        cfg.fleet.churn = Some(ChurnConfig {
            mean_arrival_gap_s: 5.0,
            mean_departure_gap_s: 4.0,
        });
        let mut ex = BufferedExecutor::new(cfg, 6, 500, 4, 21);
        let (mut dispatched, mut aggregated, mut lost) = (0usize, 0usize, 0usize);
        for round in 0..15 {
            let universe = RoundExecutor::universe(&ex).unwrap();
            let selected: Vec<usize> = (0..universe).filter(|c| (c + round) % 2 == 0).collect();
            let out = ex.execute(round, &selected, &stub_train);
            let h = out.hetero.unwrap();
            dispatched += selected.len() - h.dropouts - h.busy;
            aggregated += out.updates.len();
            lost += h.stragglers;
        }
        // Every dispatch is aggregated, lost to a mid-flight departure,
        // still traveling, or parked in the partial buffer.
        assert_eq!(
            dispatched,
            aggregated + lost + ex.in_flight() + ex.buffered(),
            "dispatch accounting must close under churn"
        );
        assert!(aggregated > 0, "churn starved every aggregation");
    }

    #[test]
    #[should_panic(expected = "buffer must be positive")]
    fn buffered_rejects_zero_buffer() {
        let _ = BufferedExecutor::new(buffered_cfg(1.0, 0), 4, 10, 4, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds participants")]
    fn buffered_rejects_buffer_wider_than_participants() {
        let _ = BufferedExecutor::new(buffered_cfg(1.0, 5), 8, 10, 4, 1);
    }
}
