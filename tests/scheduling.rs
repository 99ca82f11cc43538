//! Multicore equivalence gate: with the default site model — one core,
//! unlimited memory, the protocol scheduler and single-core demands — every
//! registry scenario must reproduce the pre-multicore sweep bytes exactly,
//! regardless of thread count. The fixture was recorded immediately before
//! the `SiteResources`/`Scheduler` refactor landed. The one-core case runs
//! the general `SiteScheduler` code, so any drift here means that code no
//! longer computes the paper's single-site §5 and §10 tests exactly.

use rtds::core::DemandRule;
use rtds::scenarios::{builtin_scenarios, run_sweep, Scenario, SweepConfig};
use rtds::sched::SchedulerKind;

const PRE_MULTICORE_SWEEP: &str = include_str!("fixtures/sweep_pre_multicore_seed1.json");

/// The scenarios that existed before the multicore model: default scheduler,
/// default demands, default (degenerate) resource recipe.
fn pre_multicore_scenarios() -> Vec<Scenario> {
    builtin_scenarios()
        .into_iter()
        .filter(|s| {
            s.config.scheduler == SchedulerKind::Protocol
                && s.config.demand == DemandRule::SingleCore
                && s.resources.is_degenerate()
        })
        .collect()
}

#[test]
fn default_model_reproduces_the_pre_multicore_sweep_bytes() {
    let scenarios = pre_multicore_scenarios();
    assert!(
        scenarios.len() >= 16,
        "the pre-multicore registry had 16 scenarios, found {}",
        scenarios.len()
    );
    for threads in [1, 2, 4] {
        let report = run_sweep(&scenarios, &SweepConfig::new(1, 1, threads));
        assert_eq!(
            report.to_json(),
            PRE_MULTICORE_SWEEP,
            "sweep bytes drifted from the pre-multicore fixture (threads = {threads})"
        );
    }
}
