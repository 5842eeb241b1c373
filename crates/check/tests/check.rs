//! End-to-end tests of the model checker itself: determinism, clean
//! verdicts on a healthy engine, seeded-bug detection with shrinking and
//! replay, and exploration bookkeeping.

use decaf_check::{
    exhaustive, run_once, sweep, CheckOptions, Counterexample, FaultAction, FaultClasses,
    FaultKind, FaultPlan, OracleKind, ScenarioConfig,
};
use decaf_core::TestMutation;

fn small_cfg() -> ScenarioConfig {
    ScenarioConfig {
        txns_per_site: 3,
        ..ScenarioConfig::default()
    }
}

fn partition_plan() -> FaultPlan {
    FaultPlan {
        actions: vec![
            FaultAction {
                at_ms: 40,
                kind: FaultKind::Partition {
                    a: vec![1],
                    b: vec![2, 3],
                },
            },
            FaultAction {
                at_ms: 90,
                kind: FaultKind::Heal,
            },
        ],
    }
}

#[test]
fn quiet_schedule_upholds_every_oracle() {
    let cfg = small_cfg();
    let report = run_once(&cfg, &FaultPlan::quiet(), 7, None);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.gestures, u64::from(cfg.sites * cfg.txns_per_site));
    assert!(report.committed > 0);
    assert_eq!(report.live, vec![1, 2, 3]);
    assert!(!report.trace.is_empty(), "trace should capture the run");
}

#[test]
fn same_seed_same_schedule_is_byte_identical() {
    let cfg = small_cfg();
    let plan = partition_plan();
    let a = run_once(&cfg, &plan, 42, None);
    let b = run_once(&cfg, &plan, 42, None);
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.committed, b.committed);
    // The replayability contract: traces match line for line, bytes for
    // bytes (manual-clock sinks, seeded RNGs, deterministic simulator).
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.trace.join("\n"), b.trace.join("\n"));
}

/// Two sweeps over every fault class print the same report, counterexample
/// traces included. Every engine and simulator container iterates in a
/// fixed order (DESIGN.md §8), so nothing depends on a per-process hash key
/// — which is new for each map even within one process.
#[test]
fn every_class_sweep_is_byte_identical_run_to_run() {
    let opts = CheckOptions {
        classes: FaultClasses::all(),
        seeds: 300,
        shrink: false,
        ..CheckOptions::default()
    };
    assert_eq!(sweep(&opts).to_json(), sweep(&opts).to_json());
}

#[test]
fn partition_heal_sweep_passes_all_oracles() {
    let opts = CheckOptions {
        config: small_cfg(),
        classes: FaultClasses::partitions_only(),
        seeds: 12,
        seed_start: 100,
        shrink: false,
        stop_at_first: false,
        mutation: None,
    };
    let report = sweep(&opts);
    assert_eq!(report.random_schedules, 12);
    assert_eq!(report.violations, 0, "{:#?}", report.counterexamples);
    assert!(report.committed > 0);
}

#[test]
fn kill_schedules_converge_among_survivors() {
    let cfg = small_cfg();
    let plan = FaultPlan {
        actions: vec![FaultAction {
            at_ms: 50,
            kind: FaultKind::Kill { site: 3 },
        }],
    };
    let report = run_once(&cfg, &plan, 9, None);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.live, vec![1, 2], "site 3 should be dead");
}

#[test]
fn crash_restart_schedule_recovers_and_converges() {
    // One site crashes mid-run with a torn WAL tail, restarts, recovers,
    // and rejoins: every oracle — convergence including the restarted
    // site, crash durability, pessimistic coverage through the restart —
    // must hold, and nobody is permanently dead at the end.
    let cfg = small_cfg();
    let plan = FaultPlan {
        actions: vec![FaultAction {
            at_ms: 50,
            kind: FaultKind::CrashRestart {
                site: 3,
                down_ms: 80,
                torn: 24,
            },
        }],
    };
    let report = run_once(&cfg, &plan, 11, None);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.live, vec![1, 2, 3], "a crash is not a kill");
    assert!(report.committed > 0);
}

#[test]
fn crash_restart_schedules_are_deterministic() {
    let cfg = small_cfg();
    let plan = FaultPlan {
        actions: vec![
            FaultAction {
                at_ms: 35,
                kind: FaultKind::CrashRestart {
                    site: 2,
                    down_ms: 60,
                    torn: 0,
                },
            },
            FaultAction {
                at_ms: 70,
                kind: FaultKind::Heal,
            },
        ],
    };
    let a = run_once(&cfg, &plan, 23, None);
    let b = run_once(&cfg, &plan, 23, None);
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn crash_sweep_passes_all_oracles() {
    let opts = CheckOptions {
        config: small_cfg(),
        classes: FaultClasses::crashes_only(),
        seeds: 24,
        seed_start: 1,
        shrink: false,
        stop_at_first: false,
        mutation: None,
    };
    let report = sweep(&opts);
    assert_eq!(report.random_schedules, 24);
    assert_eq!(report.violations, 0, "{:#?}", report.counterexamples);
    assert!(report.committed > 0);
}

#[test]
fn exhaustive_enumerates_the_full_alphabet() {
    let cfg = ScenarioConfig {
        objects: 1,
        txns_per_site: 2,
        ..ScenarioConfig::default()
    };
    // Alphabet for 3 sites: none, heal, 3 singleton cuts = 5; depth 2.
    let report = exhaustive(&cfg, 2, 1);
    assert_eq!(report.exhaustive_schedules, 25);
    assert_eq!(report.violations, 0, "{:#?}", report.counterexamples);
}

#[test]
fn seeded_bug_is_caught_shrunk_and_replayed() {
    // The DropPessCommitNotice mutation starves pessimistic views of
    // commit notices: any schedule with a committed write on a watched
    // object violates losslessness, so detection needs exactly one seed
    // of budget.
    let opts = CheckOptions {
        config: small_cfg(),
        classes: FaultClasses::partitions_only(),
        seeds: 8,
        seed_start: 1,
        shrink: true,
        stop_at_first: true,
        mutation: Some(TestMutation::DropPessCommitNotice),
    };
    let report = sweep(&opts);
    assert!(report.violations >= 1, "mutation must be detected");
    assert_eq!(report.random_schedules, 1, "first seed should already fail");
    let ce = report
        .counterexamples
        .first()
        .expect("counterexample retained");
    assert!(
        ce.violations
            .iter()
            .any(|v| v.oracle == OracleKind::PessLossless),
        "expected a losslessness violation: {:?}",
        ce.violations
    );
    // Shrinking is removal-only and this failure needs no faults at all,
    // so the minimal schedule is empty.
    assert!(ce.plan.actions.len() <= ce.shrunk_from);
    assert!(
        ce.plan.actions.is_empty(),
        "mutation fails without faults; minimal plan should be empty: {:?}",
        ce.plan
    );
    // The frozen artifact replays deterministically.
    assert!(ce.reproduces(), "artifact must replay byte-for-byte");
}

#[test]
fn skip_rollback_renotify_mutation_is_caught_by_sweep() {
    // The subtler seeded bug: rollbacks stop re-notifying optimistic
    // views, so a view can be left displaying a rolled-back guess.
    // Detection is schedule-dependent — a *final* abort (retry budget
    // exhausted) must land on a view's current guess with no later
    // update superseding it — so the scenario maximizes contention
    // (one object, increments only, zero retries) and the sweep gets a
    // real seed budget.
    let cfg = ScenarioConfig {
        objects: 1,
        txns_per_site: 4,
        w_increment: 1,
        w_blind_write: 0,
        w_guess_heavy: 1,
        retry_budget: 0,
        ..ScenarioConfig::default()
    };
    let opts = CheckOptions {
        config: cfg,
        classes: FaultClasses::partitions_only(),
        seeds: 64,
        seed_start: 1,
        shrink: false,
        stop_at_first: true,
        mutation: Some(TestMutation::SkipRollbackRenotify),
    };
    let report = sweep(&opts);
    assert!(
        report.violations >= 1,
        "SkipRollbackRenotify should be caught within 64 seeds"
    );
}

#[test]
fn counterexample_artifact_round_trips_through_json() {
    let cfg = small_cfg();
    let plan = partition_plan();
    let report = run_once(&cfg, &plan, 3, Some(TestMutation::DropPessCommitNotice));
    assert!(!report.violations.is_empty());
    let ce = Counterexample::new(
        &cfg,
        3,
        Some(TestMutation::DropPessCommitNotice),
        &plan,
        plan.actions.len(),
        &report,
    );
    let json = ce.to_json();
    let back = Counterexample::from_json(&json).expect("parse artifact");
    assert_eq!(ce, back);
    assert_eq!(back.mutation(), Some(TestMutation::DropPessCommitNotice));
    assert!(back.reproduces());
}

/// The smallest kill counterexample `decaf-check --faults kills --seeds 2000
/// --shrink` finds: site 2 fail-stops 1 ms into the run, and survivors 1
/// and 3 end with different committed states for both objects (after the
/// failure notice each commits its own gestures locally and sends the
/// other nothing). An open defect (ROADMAP direction 7): this test pins
/// that the artifact still parses and replays bit for bit; the fix flips
/// its `violations` to empty.
#[test]
fn frozen_kill_counterexample_reproduces() {
    let ce = Counterexample::from_json(include_str!("kill_survivors_diverge.json"))
        .expect("artifact parses");
    assert_eq!(ce.plan.actions.len(), 1);
    assert!(matches!(
        ce.plan.actions[0].kind,
        FaultKind::Kill { site: 2 }
    ));
    assert!(!ce.violations.is_empty());
    assert!(ce
        .violations
        .iter()
        .all(|v| v.oracle == OracleKind::Convergence));
    assert!(ce.reproduces());
}

mod shrink_properties {
    use super::*;
    use decaf_check::shrink_plan;
    use decaf_proptest::prelude::*;

    fn arb_action() -> impl Strategy<Value = FaultAction> {
        let kind = prop_oneof![
            Just(FaultKind::Heal),
            Just(FaultKind::Partition {
                a: vec![1],
                b: vec![2, 3],
            }),
            Just(FaultKind::Partition {
                a: vec![2],
                b: vec![1, 3],
            }),
        ];
        (0u64..160, kind).prop_map(|(at_ms, kind)| FaultAction { at_ms, kind })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Shrinker contract: the output still fails the oracle, and is
        /// never larger than the input. The injected mutation makes every
        /// schedule fail, so the predicate is non-trivial everywhere.
        #[test]
        fn shrunk_plan_still_fails_and_never_grows(actions in prop::collection::vec(arb_action(), 0..5)) {
            let cfg = ScenarioConfig {
                sites: 2,
                objects: 1,
                txns_per_site: 2,
                ..ScenarioConfig::default()
            };
            let mut actions = actions;
            actions.sort_by_key(|a| a.at_ms);
            let plan = FaultPlan { actions };
            let mutation = Some(TestMutation::DropPessCommitNotice);
            let shrunk = shrink_plan(&cfg, 5, &plan, mutation);
            prop_assert!(shrunk.actions.len() <= plan.actions.len());
            let verdict = run_once(&cfg, &shrunk, 5, mutation);
            prop_assert!(!verdict.violations.is_empty(), "shrunk plan must still fail");
        }
    }
}
