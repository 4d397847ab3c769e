//! Replayable workload scenarios: a declarative sequence of membership
//! events executed against the simulation, with per-event timing and a
//! latency distribution — the library form of the paper's "typical
//! collaborative group … formed incrementally, its population mutating
//! throughout its lifetime" (§2.1).

use std::rc::Rc;

use gkap_gcs::{ClientId, SimWorld};
use gkap_sim::stats::Summary;
use gkap_telemetry::metrics::LogHistogram;

use crate::experiment::ExperimentConfig;
use crate::member::SecureMember;
use crate::suite::CryptoSuite;

/// Which member a scripted leave removes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeavePick {
    /// The oldest member (view head; CKD's controller).
    Oldest,
    /// The newest member (view tail; GDH's controller).
    Newest,
    /// The middle of the view.
    Middle,
    /// The view position `i mod size`.
    Nth(usize),
}

/// One scripted membership event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// A fresh member joins.
    Join,
    /// One member leaves.
    Leave(LeavePick),
    /// `p` members (spread across the view) are partitioned away.
    Partition(usize),
    /// A fresh pre-keyed component of `m` members merges in.
    Merge(usize),
}

/// A full scenario: initial size plus a step script.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Members in the initial (bootstrap) view.
    pub initial: usize,
    /// The scripted events, applied in order.
    pub steps: Vec<Step>,
}

impl Scenario {
    /// A churny-conference preset: grow from `initial` with joins,
    /// then alternate leaves and joins.
    pub fn conference(initial: usize, churn: usize) -> Self {
        let mut steps = Vec::new();
        for i in 0..churn {
            steps.push(match i % 3 {
                0 => Step::Join,
                1 => Step::Leave(LeavePick::Nth(i * 5 + 1)),
                _ => Step::Join,
            });
        }
        Scenario { initial, steps }
    }

    /// Upper bound on clients the scenario needs.
    fn clients_needed(&self) -> usize {
        let joins: usize = self
            .steps
            .iter()
            .map(|s| match s {
                Step::Join => 1,
                Step::Merge(m) => *m,
                _ => 0,
            })
            .sum();
        self.initial + joins
    }
}

/// Timing of one executed step.
#[derive(Clone, Debug)]
pub struct EventReport {
    /// The step executed.
    pub step: Step,
    /// Total elapsed time (inject → last key completion), virtual ms.
    pub elapsed_ms: f64,
    /// Group size after the event.
    pub size_after: usize,
}

/// The result of a scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Per-event timings, in script order.
    pub events: Vec<EventReport>,
    /// Summary over all event times.
    pub summary: Summary,
    /// Latency distribution over all event times (log buckets from
    /// 0.1 ms, ×1.5 per bucket).
    pub histogram: LogHistogram,
    /// Whether every event completed with all members agreeing.
    pub ok: bool,
}

/// Executes `scenario` under `cfg`, returning per-event timings.
///
/// # Panics
///
/// Panics if the scenario empties the group or a merge/partition size
/// is infeasible at execution time.
pub fn run_scenario(cfg: &ExperimentConfig, scenario: &Scenario) -> ScenarioReport {
    let suite = Rc::new(match cfg.suite {
        crate::experiment::SuiteKind::Sim512 => CryptoSuite::sim_512(),
        crate::experiment::SuiteKind::Sim1024 => CryptoSuite::sim_1024(),
        crate::experiment::SuiteKind::Sim512Dsa => CryptoSuite::sim_512_dsa(),
        crate::experiment::SuiteKind::FastZero => CryptoSuite::fast_zero(),
    });
    let total = scenario.clients_needed();
    let mut world = SimWorld::new(cfg.gcs.clone());
    for i in 0..total {
        let mut member = SecureMember::new(
            cfg.protocol,
            Rc::clone(&suite),
            cfg.seed ^ ((i as u64 + 1) * 0x9e37_79b9),
            Some(cfg.seed),
        );
        member.set_key_confirmation(cfg.confirm_keys);
        world.add_client(Box::new(member));
    }
    world.install_initial_view_of((0..scenario.initial).collect());
    world.run_until_quiescent();

    let mut next_fresh = scenario.initial;
    let mut events = Vec::with_capacity(scenario.steps.len());
    let mut summary = Summary::new();
    let mut histogram = LogHistogram::new(0.1, 1.5, 48);
    let mut ok = true;

    for &step in &scenario.steps {
        let members = world.view().expect("view").members.clone();
        let target_epoch = world.view().expect("view").id + 1;
        let inject = world.now().as_millis_f64();
        let wait_for: Vec<ClientId> = match step {
            Step::Join => {
                let j = next_fresh;
                next_fresh += 1;
                world.inject_join(j);
                let mut w = members;
                w.push(j);
                w
            }
            Step::Leave(pick) => {
                assert!(members.len() > 1, "scenario would empty the group");
                let leaver = match pick {
                    LeavePick::Oldest => members[0],
                    LeavePick::Newest => *members.last().expect("non-empty"),
                    LeavePick::Middle => members[members.len() / 2],
                    LeavePick::Nth(i) => members[i % members.len()],
                };
                world.inject_leave(leaver);
                members.into_iter().filter(|&c| c != leaver).collect()
            }
            Step::Partition(p) => {
                assert!(p < members.len(), "partition would empty the group");
                let stride = (members.len() as f64 / p as f64).max(1.0);
                let mut leaving: Vec<ClientId> = (0..p)
                    .map(|i| members[((i as f64 + 0.5) * stride) as usize % members.len()])
                    .collect();
                leaving.dedup();
                world.inject_partition(leaving.clone());
                members
                    .into_iter()
                    .filter(|c| !leaving.contains(c))
                    .collect()
            }
            Step::Merge(m) => {
                let component: Vec<ClientId> = (next_fresh..next_fresh + m).collect();
                next_fresh += m;
                let comp_seed = cfg.seed ^ 0xfeed ^ next_fresh as u64;
                for &c in &component {
                    world
                        .client_mut::<SecureMember>(c)
                        .preseed_component(&component, c, comp_seed);
                }
                world.inject_merge(component.clone());
                let mut w = members;
                w.extend(component);
                w
            }
        };
        let complete = |w: &SimWorld| {
            wait_for.iter().all(|&c| {
                w.client::<SecureMember>(c)
                    .completion(target_epoch)
                    .is_some()
            })
        };
        world.run_while(|w| !complete(w));
        if !complete(&world) {
            ok = false;
        }
        let mut last = inject;
        let mut secret = None;
        for &c in &wait_for {
            let m = world.client::<SecureMember>(c);
            if let Some(t) = m.completion(target_epoch) {
                last = last.max(t.as_millis_f64());
            }
            match (m.secret(target_epoch), &secret) {
                (Some(s), None) => secret = Some(s.clone()),
                (Some(s), Some(prev)) if s != prev => ok = false,
                (None, _) => ok = false,
                _ => {}
            }
        }
        let elapsed_ms = last - inject;
        summary.add(elapsed_ms);
        histogram.record(elapsed_ms);
        events.push(EventReport {
            step,
            elapsed_ms,
            size_after: wait_for.len(),
        });
    }
    ScenarioReport {
        events,
        summary,
        histogram,
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::protocols::ProtocolKind;

    #[test]
    fn conference_preset_runs_for_all_protocols() {
        for kind in ProtocolKind::all() {
            let cfg = ExperimentConfig::lan_fast(kind);
            let scenario = Scenario::conference(4, 6);
            let report = run_scenario(&cfg, &scenario);
            assert!(report.ok, "{kind}");
            assert_eq!(report.events.len(), 6);
            assert_eq!(report.summary.count(), 6);
            assert_eq!(report.histogram.count(), 6);
            assert!(report.summary.mean() > 0.0);
        }
    }

    #[test]
    fn mixed_steps_including_merge_and_partition() {
        let cfg = ExperimentConfig::lan_fast(ProtocolKind::Tgdh);
        let scenario = Scenario {
            initial: 6,
            steps: vec![
                Step::Join,
                Step::Merge(3),
                Step::Partition(4),
                Step::Leave(LeavePick::Oldest),
                Step::Leave(LeavePick::Newest),
                Step::Join,
            ],
        };
        let report = run_scenario(&cfg, &scenario);
        assert!(report.ok);
        let sizes: Vec<usize> = report.events.iter().map(|e| e.size_after).collect();
        assert_eq!(sizes, vec![7, 10, 6, 5, 4, 5]);
    }

    #[test]
    fn scenario_is_deterministic() {
        let cfg = ExperimentConfig::lan_fast(ProtocolKind::Str);
        let scenario = Scenario::conference(5, 5);
        let a = run_scenario(&cfg, &scenario);
        let b = run_scenario(&cfg, &scenario);
        let ta: Vec<f64> = a.events.iter().map(|e| e.elapsed_ms).collect();
        let tb: Vec<f64> = b.events.iter().map(|e| e.elapsed_ms).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    #[should_panic(expected = "empty the group")]
    fn emptying_scenario_panics() {
        let cfg = ExperimentConfig::lan_fast(ProtocolKind::Bd);
        let scenario = Scenario {
            initial: 1,
            steps: vec![Step::Leave(LeavePick::Oldest)],
        };
        let _ = run_scenario(&cfg, &scenario);
    }
}
