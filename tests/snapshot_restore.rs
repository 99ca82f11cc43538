//! Checkpoint → restore round-trips: a run interrupted mid-flight and
//! resumed from its serialized snapshot must end in exactly the state of an
//! uninterrupted run — same report, bit-equal floats, byte-identical JSON.
//!
//! Covers both execution paths on real registry scenarios: the batch path
//! (`paper-baseline`, snapshotted via [`RtdsSystem::checkpoint`] /
//! [`RtdsSystem::resume`]) and the open-loop streaming path (`diurnal-wave`,
//! paused via [`RtdsSystem::run_streaming_checkpoint`] and resumed with a
//! fresh deterministic job source), plus a 1/2/4-thread sweep showing the
//! checkpointed cells are independent of sweep parallelism. Corrupted
//! stream checkpoints must resume to an `Err`, never a panic or a hang.

use rtds::core::{RtdsSystem, StreamOptions, StreamPause, StreamReport, StreamRun};
use rtds::scenarios::{find_scenario, mix_seed, parallel_sweep_sharded, Scenario};
use rtds::sim::{metrics_to_json, Json};
use rtds::workload::JobFactory;

/// A `paper-baseline` system with its workload submitted, exactly as
/// `run_cell` builds it.
fn batch_system(scenario: &Scenario, seed: u64) -> RtdsSystem {
    let network = scenario.build_network(seed);
    let jobs = scenario.build_workload(&network, seed);
    let mut system = RtdsSystem::new(network, scenario.config, mix_seed(seed, 5));
    system.submit_workload(jobs);
    system
}

#[test]
fn batch_checkpoint_resumes_byte_identically() {
    let scenario = find_scenario("paper-baseline").expect("registry scenario");
    let seed = 7;

    let mut uninterrupted = batch_system(&scenario, seed);
    let full = uninterrupted.run();
    assert!(full.jobs_submitted > 0, "the cell must be non-trivial");

    // Same cell, stopped a third of the way into the horizon, serialized,
    // restored and driven to quiescence.
    let mut interrupted = batch_system(&scenario, seed);
    interrupted.run_until(80.0);
    assert!(
        interrupted.events_processed() < uninterrupted.events_processed(),
        "the checkpoint must land mid-run"
    );
    let text = interrupted.checkpoint();
    assert!(text.contains("rtds-system-snapshot/1"));
    let mut resumed = RtdsSystem::resume(&text).expect("checkpoint decodes");
    let report = resumed.run();

    // The reports agree structurally (PartialEq on f64 is bit-level here:
    // every value is reproduced exactly, not approximately)...
    assert_eq!(report, full);
    // ...their rendered telemetry is byte-identical...
    assert_eq!(
        metrics_to_json(&report.metrics, true).render(),
        metrics_to_json(&full.metrics, true).render()
    );
    // ...and so is the final engine state itself.
    assert_eq!(resumed.checkpoint(), uninterrupted.checkpoint());
}

#[test]
fn batch_checkpoint_text_round_trips() {
    let scenario = find_scenario("paper-baseline").expect("registry scenario");
    let mut system = batch_system(&scenario, 11);
    system.run_until(60.0);
    let text = system.checkpoint();
    // checkpoint → resume → checkpoint is the identity on the document.
    let restored = RtdsSystem::resume(&text).expect("checkpoint decodes");
    assert_eq!(restored.checkpoint(), text);
}

/// The `diurnal-wave` streaming cell's job source, rebuilt fresh each time
/// exactly as `run_cell` does — deterministic per seed, which is what
/// resuming relies on.
fn diurnal_source(scenario: &Scenario, seed: u64) -> JobFactory<rtds::workload::OpenLoopSource> {
    let stream = scenario.stream.expect("diurnal-wave streams");
    let site_count = scenario.build_network(seed).site_count();
    JobFactory::new(
        stream.open_loop.build(site_count, mix_seed(seed, 2)),
        scenario.job_template(),
    )
}

fn diurnal_system(scenario: &Scenario, seed: u64) -> RtdsSystem {
    RtdsSystem::new(
        scenario.build_network(seed),
        scenario.config,
        mix_seed(seed, 5),
    )
}

#[test]
fn streaming_checkpoint_resumes_byte_identically() {
    let scenario = find_scenario("diurnal-wave").expect("registry scenario");
    let seed = 3;
    let options = StreamOptions::default();

    let mut uninterrupted = diurnal_system(&scenario, seed);
    let mut source = diurnal_source(&scenario, seed);
    let full = uninterrupted.run_streaming(&mut source, &options);
    assert!(full.guarantee.submitted > 0, "the cell must be non-trivial");

    // Pause mid-run (the scenario horizon is 360), serialize, resume with a
    // fresh instance of the same source.
    let mut paused = diurnal_system(&scenario, seed);
    let mut live = diurnal_source(&scenario, seed);
    let text =
        match paused.run_streaming_checkpoint(&mut live, &options, &StreamPause::AtTime(180.0)) {
            StreamRun::Paused(text) => text,
            StreamRun::Finished(_) => panic!("the run must pause before draining"),
        };
    assert!(text.contains("rtds-stream-snapshot/1"));

    let mut fresh = diurnal_source(&scenario, seed);
    let resumed = RtdsSystem::resume_streaming(&text, &mut fresh).expect("checkpoint decodes");
    assert_eq!(resumed, full);
    assert_eq!(
        metrics_to_json(&resumed.metrics, true).render(),
        metrics_to_json(&full.metrics, true).render()
    );
}

#[test]
fn streaming_pause_past_the_end_just_finishes() {
    let scenario = find_scenario("diurnal-wave").expect("registry scenario");
    let seed = 5;
    let options = StreamOptions::default();

    let mut plain = diurnal_system(&scenario, seed);
    let mut source = diurnal_source(&scenario, seed);
    let full = plain.run_streaming(&mut source, &options);

    // A pause point the run never reaches must not truncate it.
    let mut checkpointed = diurnal_system(&scenario, seed);
    let mut live = diurnal_source(&scenario, seed);
    match checkpointed.run_streaming_checkpoint(&mut live, &options, &StreamPause::AtTime(1.0e9)) {
        StreamRun::Finished(report) => assert_eq!(*report, full),
        StreamRun::Paused(_) => panic!("nothing left to pause for"),
    }
}

/// One `diurnal-wave` cell, interrupted by event count and resumed — the
/// unit of work for the thread-sweep comparison below.
fn checkpointed_stream_cell(seed: u64) -> StreamReport {
    let scenario = find_scenario("diurnal-wave").expect("registry scenario");
    let options = StreamOptions::default();
    let mut system = diurnal_system(&scenario, seed);
    let mut live = diurnal_source(&scenario, seed);
    match system.run_streaming_checkpoint(&mut live, &options, &StreamPause::AfterEvents(2_000)) {
        StreamRun::Paused(text) => {
            let mut fresh = diurnal_source(&scenario, seed);
            RtdsSystem::resume_streaming(&text, &mut fresh).expect("checkpoint decodes")
        }
        StreamRun::Finished(report) => *report,
    }
}

#[test]
fn checkpointed_cells_are_independent_of_sweep_threads() {
    let seeds: Vec<u64> = vec![1, 2, 4];
    let single = parallel_sweep_sharded(seeds.clone(), 1, checkpointed_stream_cell);
    let double = parallel_sweep_sharded(seeds.clone(), 2, checkpointed_stream_cell);
    let quad = parallel_sweep_sharded(seeds.clone(), 4, checkpointed_stream_cell);
    assert_eq!(single, double);
    assert_eq!(single, quad);
    // And each checkpointed cell equals its uninterrupted twin.
    for (i, seed) in seeds.iter().enumerate() {
        let scenario = find_scenario("diurnal-wave").expect("registry scenario");
        let mut system = diurnal_system(&scenario, *seed);
        let mut source = diurnal_source(&scenario, *seed);
        let full = system.run_streaming(&mut source, &StreamOptions::default());
        assert_eq!(single[i], full, "seed {seed}");
    }
}

/// A real mid-run `diurnal-wave` stream checkpoint (seed 3, paused at
/// t = 180), parsed so a test can corrupt it.
fn stream_checkpoint() -> Json {
    let scenario = find_scenario("diurnal-wave").expect("registry scenario");
    let mut system = diurnal_system(&scenario, 3);
    let mut live = diurnal_source(&scenario, 3);
    let options = StreamOptions::default();
    match system.run_streaming_checkpoint(&mut live, &options, &StreamPause::AtTime(180.0)) {
        StreamRun::Paused(text) => Json::parse(&text).expect("checkpoint parses"),
        StreamRun::Finished(_) => panic!("the run must pause before draining"),
    }
}

/// The value of field `key` of a JSON object, for editing.
fn field<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Object(fields) = obj else {
        panic!("{key}: not an object")
    };
    let (_, value) = fields.iter_mut().find(|(k, _)| k == key).expect(key);
    value
}

/// Resumes `doc` with a fresh seed-3 `diurnal-wave` source.
fn resume_diurnal(doc: &Json) -> Result<StreamReport, String> {
    let scenario = find_scenario("diurnal-wave").expect("registry scenario");
    let mut fresh = diurnal_source(&scenario, 3);
    RtdsSystem::resume_streaming(&doc.render(), &mut fresh).map_err(|e| e.to_string())
}

#[test]
fn resume_rejects_a_buffered_job_at_a_missing_site() {
    let mut doc = stream_checkpoint();
    *field(field(&mut doc, "buffered"), "site") = Json::UInt(99_999);
    let err = resume_diurnal(&doc).unwrap_err();
    assert!(err.contains("site 99999"), "{err}");
}

#[test]
fn resume_rejects_a_pull_count_off_the_injected_count() {
    let mut doc = stream_checkpoint();
    *field(&mut doc, "pulls") = Json::Num(1e15);
    let err = resume_diurnal(&doc).unwrap_err();
    assert!(err.contains("pulls"), "{err}");
}

#[test]
fn resume_rejects_a_source_shorter_than_the_pulls() {
    // Consistent counters, but more injected jobs than the source holds.
    let mut doc = stream_checkpoint();
    *field(field(&mut doc, "harvest"), "injected") = Json::UInt(1_000_000);
    *field(&mut doc, "pulls") = Json::UInt(1_000_001);
    let err = resume_diurnal(&doc).unwrap_err();
    assert!(err.contains("ran out"), "{err}");
}

/// A real mid-run `paper-baseline` checkpoint (seed 7, stopped at t = 80),
/// parsed so a test can corrupt one node's scheduler section.
fn batch_checkpoint() -> Json {
    let scenario = find_scenario("paper-baseline").expect("registry scenario");
    let mut system = batch_system(&scenario, 7);
    system.run_until(80.0);
    Json::parse(&system.checkpoint()).expect("checkpoint parses")
}

/// The encoded state of node 0.
fn first_node(doc: &mut Json) -> &mut Json {
    let Json::Array(nodes) = field(field(doc, "engine"), "nodes") else {
        panic!("nodes: not an array")
    };
    &mut nodes[0]
}

/// Resumes `doc` as a batch system, rendering any error.
fn resume_batch(doc: &Json) -> Result<RtdsSystem, String> {
    RtdsSystem::resume(&doc.render()).map_err(|e| e.to_string())
}

#[test]
fn resume_rejects_a_node_without_a_sched_section() {
    let mut doc = batch_checkpoint();
    let Json::Object(fields) = first_node(&mut doc) else {
        panic!("node: not an object")
    };
    fields.retain(|(k, _)| k != "sched");
    let err = resume_batch(&doc)
        .err()
        .expect("a node without sched must not restore");
    assert!(err.contains("sched"), "{err}");
}

#[test]
fn resume_rejects_a_sched_section_with_zero_cores() {
    let mut doc = batch_checkpoint();
    let sched = field(first_node(&mut doc), "sched");
    *field(sched, "cores") = Json::UInt(0);
    *field(sched, "plans") = Json::Array(Vec::new());
    let err = resume_batch(&doc)
        .err()
        .expect("zero cores must not restore");
    assert!(err.contains("core"), "{err}");
}

#[test]
fn resume_rejects_a_sched_section_with_zero_base_speed() {
    let mut doc = batch_checkpoint();
    *field(field(first_node(&mut doc), "sched"), "base_speed") = Json::UInt(0.0f64.to_bits());
    let err = resume_batch(&doc)
        .err()
        .expect("zero base speed must not restore");
    assert!(err.contains("base speed"), "{err}");
}

#[test]
fn resume_rejects_a_sched_section_with_negative_speed() {
    let mut doc = batch_checkpoint();
    *field(field(first_node(&mut doc), "sched"), "speed") = Json::UInt((-1.0f64).to_bits());
    let err = resume_batch(&doc)
        .err()
        .expect("negative speed must not restore");
    assert!(err.contains("speed"), "{err}");
}

/// The reservations of the first core plan in `doc` holding at least two.
fn busy_plan(doc: &mut Json) -> &mut Vec<Json> {
    let Json::Array(nodes) = field(field(doc, "engine"), "nodes") else {
        panic!("nodes: not an array")
    };
    nodes
        .iter_mut()
        .flat_map(|node| match field(field(node, "sched"), "plans") {
            Json::Array(plans) => plans.iter_mut(),
            _ => panic!("plans: not an array"),
        })
        .find_map(|plan| match plan {
            Json::Array(reservations) if reservations.len() >= 2 => Some(reservations),
            _ => None,
        })
        .expect("the checkpoint holds a plan with two reservations")
}

/// Field `i` of an encoded `[job, task, start, end]` reservation.
fn reservation_field(reservation: &mut Json, i: usize) -> &mut Json {
    let Json::Array(fields) = reservation else {
        panic!("reservation: not an array")
    };
    &mut fields[i]
}

#[test]
fn resume_rejects_an_unsorted_plan() {
    let mut doc = batch_checkpoint();
    busy_plan(&mut doc).reverse();
    let err = resume_batch(&doc)
        .err()
        .expect("an unsorted plan must not restore");
    assert!(err.contains("sorted"), "{err}");
}

#[test]
fn resume_rejects_overlapping_reservations() {
    let mut doc = batch_checkpoint();
    let plan = busy_plan(&mut doc);
    let start = reservation_field(&mut plan[0], 2).clone();
    *reservation_field(&mut plan[1], 2) = start;
    let err = resume_batch(&doc)
        .err()
        .expect("overlapping reservations must not restore");
    assert!(err.contains("overlaps"), "{err}");
}

#[test]
fn resume_rejects_a_non_finite_or_negative_length_reservation() {
    for end in [f64::NAN, f64::INFINITY, -1.0] {
        let mut doc = batch_checkpoint();
        *reservation_field(&mut busy_plan(&mut doc)[0], 3) = Json::UInt(end.to_bits());
        let err = resume_batch(&doc)
            .err()
            .unwrap_or_else(|| panic!("a reservation ending at {end} must not restore"));
        assert!(err.contains("malformed"), "{err}");
    }
}
