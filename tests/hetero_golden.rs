//! Byte fixtures for the deadline and buffered executors, as
//! `server_props` has for the ideal one: each runs the ideal fixture's
//! environment with every dynamics knob it supports turned on, and its
//! timing-scrubbed history must match `tests/golden/<name>` byte for
//! byte. Both fixtures record dropouts, churn joins and departures,
//! stragglers and stale aggregations; the deadline one also records
//! carry-over and structured-dropout sub-models, the buffered one busy
//! clients, uploads lost to departures and a round that cannot fill its
//! buffer. Regenerate (only for an *intentional* format change, never to
//! paper over a behavioral one) with
//! `REGEN_GOLDEN=1 cargo test --test hetero_golden`.

use feddrl_repro::prelude::*;

mod common;
use common::golden_json;

/// Run the ideal golden fixture's environment (must match `server_props`)
/// for 8 rounds under `executor`, which sees the model and the config,
/// and compare the history with the fixture `name` (or rewrite the
/// fixture when `REGEN_GOLDEN` is set).
fn assert_golden(name: &str, executor: impl FnOnce(&ModelSpec, &FlConfig) -> ExecutorConfig) {
    let (train, test) = SynthSpec {
        train_size: 600,
        test_size: 150,
        ..SynthSpec::mnist_like()
    }
    .generate(5);
    let partition = PartitionMethod::ce(0.6)
        .partition(&train, 6, &mut Rng64::new(9))
        .unwrap();
    let spec = ModelSpec::Mlp {
        in_dim: train.feature_dim(),
        hidden: vec![16],
        out_dim: train.num_classes(),
    };
    let mut cfg = FlConfig {
        rounds: 8,
        participants: 5,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        },
        eval_batch: 64,
        seed: 77,
        log_every: 0,
        selection: Selection::Uniform,
        executor: ExecutorConfig::Ideal,
        server_opt: ServerOptConfig::Plain,
    };
    cfg.executor = executor(&spec, &cfg);
    let history = run_federated(&spec, &train, &test, &partition, &mut FedAvg, &cfg);
    let json = golden_json(history);
    let file = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&file, &json).expect("regenerate golden fixture");
    } else {
        let golden = std::fs::read_to_string(&file).expect("read golden fixture");
        assert_eq!(json, golden, "history diverged from {name}");
    }
}

/// A skewed fleet with the given dropout rate and mean churn gaps.
fn dynamic_fleet(dropout: f64, arrival_gap_s: f64, departure_gap_s: f64) -> FleetConfig {
    FleetConfig {
        compute_skew: 16.0,
        bandwidth_skew: 2.0,
        dropout,
        churn: Some(ChurnConfig {
            mean_arrival_gap_s: arrival_gap_s,
            mean_departure_gap_s: departure_gap_s,
        }),
        ..Default::default()
    }
}

/// p60 deadline, carry-over, default structured dropout, polynomial
/// discount; the fleet adds a diurnal cycle to dropout and churn.
#[test]
fn deadline_history_matches_golden_fixture() {
    assert_golden("deadline_history.json", |spec, cfg| {
        let fleet = FleetConfig {
            diurnal: Some(DiurnalConfig {
                period_s: 300.0,
                ..Default::default()
            }),
            ..dynamic_fleet(0.15, 25.0, 40.0)
        };
        let probe = DeadlineExecutor::new(
            HeteroConfig {
                fleet: fleet.clone(),
                ..Default::default()
            },
            6,
            spec.build(1).param_count(),
            cfg.participants,
            cfg.seed,
        );
        let p60 = probe
            .fleet()
            .completion_percentile_s(probe.upload_bytes(), 0.6);
        ExecutorConfig::Deadline(HeteroConfig {
            fleet,
            deadline_s: Some(p60),
            late_policy: LatePolicy::CarryOver,
            structured_dropout: Some(StructuredDropoutConfig::default()),
            staleness: StalenessDiscount::Polynomial { alpha: 0.5 },
            parallel_dispatch: false,
        })
    });
}

/// Buffer of 2 < K = 5, hinge discount, server mixing; the fleet has
/// heavy dropout (so busy clients would often draw one) and fast churn.
#[test]
fn buffered_history_matches_golden_fixture() {
    assert_golden("buffered_history.json", |_, _| {
        ExecutorConfig::Buffered(BufferedConfig {
            fleet: dynamic_fleet(0.3, 15.0, 15.0),
            buffer_size: 2,
            staleness: StalenessDiscount::Hinge { cutoff: 1 },
            server_mix: Some(0.5),
            parallel_dispatch: false,
        })
    });
}
