//! The benchmark's own checks: the traced replay reproduces the
//! library unit for unit, the output check catches a changed byte, and
//! a non-default seed runs clean.

use gkap_perfbench::replay::{replay, Tracer};
use gkap_perfbench::run::measure;
use gkap_perfbench::workload::{Setup, Units, Workload};

fn assert_replay_matches(setup: &Setup, units: impl Iterator<Item = usize>) {
    let tracer = Tracer::timed();
    for i in units {
        let library = setup.run_unit(i);
        let (replayed, _) = replay(setup, i, &tracer, false);
        assert!(setup.unit_ok(i, &library), "unit {i} fails its invariants");
        assert_eq!(
            library.fingerprint(),
            replayed.fingerprint(),
            "unit {i} replays differently"
        );
    }
    assert!(tracer.clock().handler_calls.get() > 0);
}

#[test]
fn replay_matches_run_join() {
    let setup = Setup::paper_lan(7).expect("set-up");
    // Every protocol at the two smallest sizes, where GDH, TGDH and STR
    // already take their multi-round paths.
    let Units::Join(cells) = &setup.units else {
        panic!("paper_lan runs join cells");
    };
    let small: Vec<usize> = (0..cells.len()).filter(|&i| cells[i].1 <= 5).collect();
    assert_eq!(small.len(), 5 * 2 * 3);
    assert_replay_matches(&setup, small.into_iter());
}

#[test]
fn replay_matches_run_shard_sparse() {
    let setup = Setup::scale(7, 40, 0.05).expect("set-up");
    assert_replay_matches(&setup, 0..setup.len());
}

#[test]
fn replay_matches_run_shard_churn() {
    let setup = Setup::scale(7, 3, 3.0).expect("set-up");
    assert_replay_matches(&setup, 0..setup.len());
}

#[test]
fn replay_matches_loss_sweeps_and_folds_to_committed_csvs() {
    let setup = Setup::lossy(7, 1).expect("set-up");
    assert_eq!(
        setup.references.len(),
        2,
        "seed 7 has both committed sweeps"
    );
    assert_replay_matches(&setup, 0..setup.len());
    let outputs: Vec<_> = (0..setup.len()).map(|i| setup.run_unit(i)).collect();
    assert!(setup.check_pass(&outputs).iter().all(|ok| *ok));
}

#[test]
fn changed_reference_fails_every_unit_it_covers() {
    let mut setup = Setup::scale(7, 2, 3.0).expect("set-up");
    let outputs: Vec<_> = (0..setup.len()).map(|i| setup.run_unit(i)).collect();
    let file = setup.render(&outputs).remove(0);
    setup.references = vec![(file.name.clone(), file.csv.clone())];
    assert!(setup.check_pass(&outputs).iter().all(|ok| *ok));
    setup.references[0].1 = file.csv.replacen("true", "fals", 1);
    assert!(setup.check_pass(&outputs).iter().all(|ok| !*ok));
}

#[test]
fn non_default_seed_runs_clean() {
    let report = measure(Workload::ScaleSparse, 8, 0.0).expect("runs");
    assert_eq!(report.attempted, 5000);
    assert_eq!(report.failed, 0);
    assert_eq!(report.fail_ratio(), 0.0);
}
