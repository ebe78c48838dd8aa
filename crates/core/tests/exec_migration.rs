//! Cross-engine migration on the shared event engine: random arrivals,
//! steps and steal → `push_migrated` moves between two engines keep the
//! books balanced.

use dvfs_core::exec::{Engine, SimConfig};
use dvfs_core::LeastMarginalCost;
use dvfs_model::{CoreSpec, CostParams, Platform, RateTable, Task, TaskClass, TaskId};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn migration_conserves_tasks_arrivals_and_energy(
        ops in prop::collection::vec(
            (0u8..4, 0usize..2, 1_000_000u64..2_000_000_000, 0.0f64..0.3),
            1..80,
        ),
    ) {
        let platform = Platform::homogeneous(2, CoreSpec::new(RateTable::i7_950_table2())).unwrap();
        let params = CostParams::online_paper();
        let mut engines = [
            Engine::new(SimConfig::new(platform.clone())),
            Engine::new(SimConfig::new(platform.clone())),
        ];
        let mut policies = [
            LeastMarginalCost::new(&platform, params),
            LeastMarginalCost::new(&platform, params),
        ];
        // Per admitted task: the arrival it was stamped with and the
        // engine that holds it now.
        let mut admitted: BTreeMap<TaskId, (f64, usize)> = BTreeMap::new();
        let mut migrations = 0usize;
        for (i, &(kind, e, cycles, dt)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => {
                    let class = if kind == 0 {
                        TaskClass::NonInteractive
                    } else {
                        TaskClass::Interactive
                    };
                    let at = engines[e].now() + dt;
                    let task = Task::online(i as u64, cycles, at, None, class).unwrap();
                    engines[e].push_task(&task);
                    admitted.insert(task.id, (at, e));
                }
                2 => {
                    let t = engines[e].now() + dt;
                    engines[e].step_until(&mut policies[e], t);
                }
                _ => {
                    let max = 1 + (cycles % 3) as usize;
                    for id in policies[e].steal_longest(&mut engines[e], max) {
                        let task = engines[e].remove_ready(id);
                        prop_assert!(task.is_some(), "ledger-resident task {} is Ready", id);
                        let task = task.unwrap();
                        prop_assert!(engines[e].remove_ready(id).is_none());
                        engines[1 - e].push_migrated(&task);
                        admitted.get_mut(&id).unwrap().1 = 1 - e;
                        migrations += 1;
                    }
                }
            }
        }
        for k in 0..2 {
            engines[k].run_to_completion(&mut policies[k]);
        }

        let completed: usize = engines.iter().map(|e| e.completed_records().count()).sum();
        prop_assert_eq!(completed, admitted.len());
        let held: usize = engines.iter().map(|e| e.records().count()).sum();
        prop_assert_eq!(held, admitted.len());
        for (k, engine) in engines.iter().enumerate() {
            let mut task_energy = 0.0;
            for rec in engine.records() {
                let (arrival, home) = admitted[&rec.id];
                prop_assert_eq!(home, k);
                prop_assert_eq!(rec.arrival, arrival);
                prop_assert!(rec.completion.is_some());
                task_energy += rec.energy_joules;
            }
            let active = engine.active_energy();
            prop_assert!(
                (task_energy - active).abs() <= 1e-9 * active.max(1.0),
                "engine {}: task energy {} vs active {} after {} migrations",
                k,
                task_energy,
                active,
                migrations
            );
        }
    }
}
