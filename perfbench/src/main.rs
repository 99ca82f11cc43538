//! The repository benchmark: seeded, single-threaded streaming simulations
//! driven through the public RTDS API.
//!
//! ```text
//! perfbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! With `--trace 0` one run repeats the workload's simulation (a fresh set-up
//! each time, identical inputs) until `--seconds` are spent and reports the
//! end-to-end metrics; with `--trace 1` it reports the per-layer metrics of a
//! traced run plus the layer drivers. Every repeat must reproduce the first
//! one's deterministic fingerprint and finish with zero failed jobs. The last
//! line of standard output is the JSON result; the lines before it print
//! every metric by name and unit. Without `--workload` every workload runs in
//! turn, each in a child process. See `perfbench/README.md`.

mod layers;
mod measure;
mod spans;
mod workloads;

use measure::{
    accept_latency_p99, median, peak_rss_mb, run_once, Fingerprint, Repeat, StepHistogram, Tracing,
};
use rtds_core::{DemandRule, StreamReport};
use rtds_sched::SchedulerKind;
use spans::{write_protocol_trace, HostSpans, TraceSummary, PHASES};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{prepare, Workload};

/// Repeats below which a run never stops, whatever `--seconds` says.
const MIN_REPEATS: usize = 3;
/// Set-ups timed per run at least (the repeats' own plus extra ones).
const MIN_SETUPS: usize = 31;
/// Where the traced run writes its spans.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Parses the flags; a flag given twice takes its last value, so a default
/// written into a command line can be overridden by appending the flag.
fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let workload =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                args.workload = Some(workload);
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The result of one workload run.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Failed correctness checks.
    problems: Vec<String>,
    /// Context printed above the metrics (sample counts and the like).
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Checks one repeat: the fingerprint of the first repeat, no failed
    /// jobs, every job of the stream injected and accounted for.
    fn check_repeat(&mut self, workload: Workload, first: &Fingerprint, repeat: &Repeat) {
        let fp = &repeat.fingerprint;
        let report = &repeat.report;
        self.attempted += fp.submitted;
        self.failed += fp.failed_jobs();
        self.check(fp == first, || {
            format!("fingerprint changed between repeats of one seed: {first:?} vs {fp:?}")
        });
        self.check(fp.failed_jobs() == 0, || {
            format!(
                "{} deadline misses and {} unharvested completions",
                fp.deadline_misses, fp.unharvested_completions
            )
        });
        self.check(fp.submitted == workload.jobs(), || {
            format!("{} of {} jobs submitted", fp.submitted, workload.jobs())
        });
        let g = &report.guarantee;
        self.check(
            g.accepted_locally + g.accepted_distributed + g.rejected == g.submitted,
            || format!("outcomes do not add up to the submitted jobs: {g:?}"),
        );
        self.check(g.completed_on_time == g.accepted(), || {
            format!(
                "{} of {} accepted jobs completed on time",
                g.completed_on_time,
                g.accepted()
            )
        });
        let placement_failures = report.stats.named("placement_failures");
        self.check(placement_failures == 0, || {
            format!("{placement_failures} committed placements failed")
        });
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Times extra set-ups until `setups` holds [`MIN_SETUPS`] samples.
fn fill_setups(workload: Workload, seed: u64, setups: &mut Vec<f64>) {
    while setups.len() < MIN_SETUPS {
        setups.push(prepare(workload, seed).setup.as_secs_f64());
    }
}

/// Host-time samples of a run's untraced repeats.
#[derive(Default)]
struct HostSamples {
    setups: Vec<f64>,
    walls: Vec<f64>,
    jobs: u64,
    gen_us_per_job: Vec<f64>,
    steps: StepHistogram,
}

impl HostSamples {
    fn add(&mut self, repeat: &Repeat) {
        self.setups.push(repeat.setup.as_secs_f64());
        self.walls.push(repeat.wall.as_secs_f64());
        self.jobs += repeat.fingerprint.submitted;
        self.gen_us_per_job
            .push(repeat.generation_ns() as f64 / 1e3 / repeat.pulls.len() as f64);
        for ns in repeat.step_ns() {
            self.steps.record(ns);
        }
    }
}

/// The untraced run: end-to-end metrics.
fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut host = HostSamples::default();
    let first = run_once(workload, seed, Tracing::Off);
    let fingerprint = first.fingerprint.clone();
    outcome.check_repeat(workload, &fingerprint, &first);
    host.add(&first);
    let report = first.report;
    loop {
        let per_repeat = start.elapsed() / host.walls.len() as u32;
        if host.walls.len() >= MIN_REPEATS && start.elapsed() + per_repeat > budget {
            break;
        }
        let repeat = run_once(workload, seed, Tracing::Off);
        outcome.check_repeat(workload, &fingerprint, &repeat);
        host.add(&repeat);
    }
    fill_setups(workload, seed, &mut host.setups);

    outcome.notes.push(format!(
        "{} repeats of {} jobs; {} step-time samples; {} set-ups",
        host.walls.len(),
        workload.jobs(),
        host.steps.count(),
        host.setups.len()
    ));
    let wall: f64 = host.walls.iter().sum();
    outcome.metric("jobs_per_s", host.jobs as f64 / wall, "1/s");
    outcome.metric("job_step_us_p50", host.steps.quantile_us(0.50), "us");
    outcome.metric("job_step_us_p99", host.steps.quantile_us(0.99), "us");
    outcome.metric("setup_s", median(&host.setups), "s");
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    simulated_metrics(&mut outcome, &report);
    outcome
}

/// The deterministic, simulated-time quality metrics of a run.
fn simulated_metrics(outcome: &mut Outcome, report: &StreamReport) {
    outcome.metric("guarantee_ratio", report.guarantee_ratio(), "ratio");
    outcome.metric("messages_per_job", report.messages_per_job, "msg/job");
    outcome.metric("accept_latency_p99", accept_latency_p99(report), "tu");
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// The traced run: per-layer metrics.
fn per_layer(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let mut host = HostSpans::new();
    let start = host.origin();
    let run_budget = Duration::from_secs_f64(seconds * 0.6);

    // Plain and traced repeats alternate, so both see the same host state.
    let mut plain = HostSamples::default();
    let mut traced_walls = Vec::new();
    let mut fingerprint: Option<Fingerprint> = None;
    let mut last_traced = None;
    while traced_walls.len() < 2 || start.elapsed() < run_budget {
        for tracing in [Tracing::Off, Tracing::On] {
            let repeat = run_once(workload, seed, tracing);
            let first = fingerprint
                .get_or_insert_with(|| repeat.fingerprint.clone())
                .clone();
            outcome.check_repeat(workload, &first, &repeat);
            let name = match tracing {
                Tracing::Off => "run_streaming.plain",
                Tracing::On => "run_streaming.traced",
            };
            let end = repeat.started + repeat.wall;
            host.record(
                "setup",
                None,
                repeat.started - repeat.setup,
                repeat.started,
                1,
            );
            let run = host.record(
                name,
                None,
                repeat.started,
                end,
                repeat.fingerprint.submitted,
            );
            match tracing {
                Tracing::Off => plain.add(&repeat),
                Tracing::On => {
                    traced_walls.push(repeat.wall.as_secs_f64());
                    last_traced = Some((repeat, run));
                }
            }
        }
    }
    let (traced, run_span) = last_traced.expect("at least two traced repeats ran");
    for &(s, e) in &traced.pulls {
        let at = |ns: u64| traced.started + Duration::from_nanos(ns);
        host.record("job_source.next_job", Some(run_span), at(s), at(e), 1);
    }
    let plain_wall = median(&plain.walls);
    let report = &traced.report;
    let counter = |name: &str| report.stats.named(name);
    let submitted = report.guarantee.submitted;
    let events = report.events_processed;
    let summary = TraceSummary::of(&traced.trace_events);
    let network = workload.network(seed);
    let sites = network.site_count();
    let config = workload.config();

    // Engine and calendar queue.
    let wall = traced.profile.wall.map(|d| d.as_secs_f64());
    let dispatch_wall: f64 = wall.iter().sum();
    let flow_wall = wall[4] + wall[5];
    outcome.metric("sim.events", events as f64, "count");
    outcome.metric("sim.events_per_job", ratio(events, submitted), "count");
    outcome.metric("sim.deliver_wall_s", wall[0], "s");
    outcome.metric("sim.external_wall_s", wall[1], "s");
    outcome.metric("sim.flow_wall_s", flow_wall, "s");
    for (name, class_wall) in [
        ("deliver", wall[0]),
        ("external", wall[1]),
        ("flow", flow_wall),
    ] {
        let share = if dispatch_wall > 0.0 {
            class_wall / dispatch_wall
        } else {
            0.0
        };
        outcome.metric(format!("sim.wall_share.{name}"), share, "ratio");
    }
    outcome.metric("sim.peak_queue_len", report.peak_queue_len as f64, "count");

    // Layer drivers share what is left of the time budget.
    let map_calls = submitted - report.guarantee.accepted_locally - counter("rejected_no_acs");
    let validation_rounds = report.metrics.histogram("trial_mapping_latency").count();
    let flows_started = counter("sim_flow_started");
    let single_core = config.demand == DemandRule::SingleCore
        && workload.resources(sites).iter().all(|r| r.is_degenerate());
    let drivers = 3
        + usize::from(single_core)
        + usize::from(map_calls > 0) * 2
        + usize::from(flows_started > 0);
    let remaining = Duration::from_secs_f64(seconds).saturating_sub(start.elapsed());
    let budget = (remaining / drivers as u32).max(Duration::from_millis(50));
    let jobs = layers::workload_jobs(workload, seed, sites, workload.jobs() as usize);
    let driver = |host: &mut HostSpans, name: &str, run: &mut dyn FnMut() -> layers::Timing| {
        let t = Instant::now();
        let timing = run();
        host.record(
            format!("driver.{name}"),
            None,
            t,
            Instant::now(),
            timing.calls,
        );
        timing
    };

    let time_per_event = report.finished_at / events.max(1) as f64;
    let queue = driver(&mut host, "calendar_queue", &mut || {
        layers::queue_ops(seed, report.peak_queue_len as usize, time_per_event, budget)
    });
    outcome.metric("sim.queue_ns_per_op", queue.per_call * 1e9, "ns");

    // §7 routing.
    let mut exchange_updates = 0;
    let pcs = driver(&mut host, "pcs_exchange", &mut || {
        let (timing, updates) = layers::pcs_exchange(&network, config.sphere_radius, budget);
        exchange_updates = updates;
        timing
    });
    outcome.check(exchange_updates == counter("routing_update"), || {
        format!(
            "the routing driver sent {exchange_updates} updates, the run {}",
            counter("routing_update")
        )
    });
    outcome.metric(
        "pcs.routing_updates",
        counter("routing_update") as f64,
        "count",
    );
    outcome.metric("pcs.exchange_ms", pcs.per_call * 1e3, "ms");

    // §5 admission and the site schedulers.
    let admit = if single_core {
        driver(&mut host, "admit_dag_locally", &mut || {
            layers::admit_locally(&jobs, sites, budget)
        })
    } else {
        layers::Timing::default()
    };
    let mut by_kind = |kind: SchedulerKind| {
        if config.scheduler == kind {
            driver(
                &mut host,
                &format!("site_scheduler.{}", kind.name()),
                &mut || layers::admit_with_scheduler(workload, kind, &jobs, sites, budget),
            )
        } else {
            layers::Timing::default()
        }
    };
    let protocol = by_kind(SchedulerKind::Protocol);
    let heft = by_kind(SchedulerKind::Heft);
    outcome.metric("sched.admit_us", admit.per_call * 1e6, "us");
    outcome.metric("sched.protocol_admit_us", protocol.per_call * 1e6, "us");
    outcome.metric("sched.heft_admit_us", heft.per_call * 1e6, "us");
    outcome.metric("sched.admit_calls", submitted as f64, "count");
    outcome.metric(
        "sched.local_accept_ratio",
        ratio(report.guarantee.accepted_locally, submitted),
        "ratio",
    );

    // Distribution: enrolment, §9 mapper, §10 matching.
    let acs = layers::AcsShape {
        members: (ratio(counter("acs_members"), map_calls).round() as usize).max(1),
        comm_delay: summary
            .mean_omega
            .unwrap_or(2.0 * config.sphere_radius as f64),
        endorse_ratio: summary.endorse_ratio.unwrap_or(0.5),
    };
    let mapper_jobs = &jobs[..jobs.len().min(2000)];
    let (map, r#match) = if map_calls > 0 {
        let mut used = Vec::new();
        let map = driver(&mut host, "map_dag", &mut || {
            let (timing, u) = layers::map_jobs(&config, mapper_jobs, acs, seed, budget);
            used = u;
            timing
        });
        let matching = if validation_rounds > 0 {
            driver(&mut host, "hopcroft_karp", &mut || {
                layers::match_rounds(&used, acs, seed, budget)
            })
        } else {
            layers::Timing::default()
        };
        (map, matching)
    } else {
        Default::default()
    };
    outcome.metric("core.enroll", counter("enroll") as f64, "count");
    outcome.metric(
        "core.enroll_ack_ratio",
        ratio(counter("enroll_ack"), counter("enroll")),
        "ratio",
    );
    outcome.metric("core.map_calls", map_calls as f64, "count");
    outcome.metric(
        "core.acs_size",
        ratio(counter("acs_members"), map_calls),
        "count",
    );
    outcome.metric("core.trial_mappings", validation_rounds as f64, "count");
    outcome.metric(
        "core.trial_success_ratio",
        ratio(report.guarantee.accepted_distributed, validation_rounds),
        "ratio",
    );
    outcome.metric(
        "core.distribution_messages",
        counter("distribution_messages") as f64,
        "count",
    );
    outcome.metric("core.map_us", map.per_call * 1e6, "us");
    outcome.metric("core.match_us", r#match.per_call * 1e6, "us");

    // Flow plane.
    let transfer_time = report.metrics.histogram("transfer_time").quantile(0.5);
    let concurrent = (flows_started as f64 * transfer_time / report.finished_at).ceil() as usize;
    let flow = if flows_started > 0 {
        driver(&mut host, "max_min_rates", &mut || {
            layers::flow_solves(&network, concurrent, seed, budget)
        })
    } else {
        layers::Timing::default()
    };
    let stale = counter("sim_flow_stale_finish");
    outcome.metric("flow.started", flows_started as f64, "count");
    outcome.metric(
        "flow.stale_finish_ratio",
        ratio(stale, stale + counter("sim_flow_finished")),
        "ratio",
    );
    outcome.metric("flow.solve_us", flow.per_call * 1e6, "us");

    // Job generation, timed inside the job-source wrapper.
    let gen_us = median(&plain.gen_us_per_job);
    outcome.metric("workload.gen_us_per_job", gen_us, "us");
    outcome.metric(
        "workload.gen_share",
        gen_us * 1e-6 * submitted as f64 / plain_wall,
        "ratio",
    );

    // Streaming harvest.
    outcome.metric("stream.harvests", report.harvests as f64, "count");
    outcome.metric(
        "stream.peak_inflight_jobs",
        report.peak_inflight_jobs as f64,
        "count",
    );

    // Observability cost and the protocol trace.
    outcome.metric(
        "trace.overhead_ratio",
        median(&traced_walls) / plain_wall,
        "ratio",
    );
    outcome.metric("trace.recorded", traced.trace_recorded as f64, "count");
    outcome.metric("trace.kept", summary.events as f64, "count");
    for (i, (_, phase)) in PHASES.iter().enumerate() {
        let name = format!("trace.spans_per_job.{phase}");
        outcome.metric(name, ratio(summary.spans[i], summary.jobs), "count");
    }

    outcome.notes.push(format!(
        "{} plain and {} traced repeats of {} jobs; network: {} sites, average degree {:.2}; \
         mapper driver ACS {} members, omega {:.3}, endorsement ratio {:.3}; {} concurrent flows",
        plain.walls.len(),
        traced_walls.len(),
        workload.jobs(),
        sites,
        network.average_degree(),
        acs.members,
        acs.comm_delay,
        acs.endorse_ratio,
        concurrent
    ));
    let out = Path::new(OUT_DIR);
    let written = std::fs::create_dir_all(out)
        .and_then(|()| {
            write_protocol_trace(
                &out.join(format!("{}.protocol-trace.jsonl", workload.name())),
                workload.name(),
                seed,
                traced.trace_recorded,
                &traced.trace_events,
            )
        })
        .and_then(|()| host.write(&out.join(format!("{}.host-spans.jsonl", workload.name()))));
    outcome.check(written.is_ok(), || {
        format!("could not write the traces to {OUT_DIR}: {written:?}")
    });
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_each_workload(&args);
    };
    let outcome = if args.trace {
        per_layer(workload, args.seed, args.seconds)
    } else {
        end_to_end(workload, args.seed, args.seconds)
    };
    println!(
        "# {} seed {} ({})",
        workload.name(),
        args.seed,
        if args.trace {
            "traced: per-layer metrics"
        } else {
            "end-to-end metrics"
        }
    );
    for note in &outcome.notes {
        println!("#   {note}");
    }
    for m in &outcome.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: {}: check failed: {problem}", workload.name());
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in turn, each in a process of its own so that its
/// `peak_rss_mb` is its own.
fn run_each_workload(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for workload in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        all_ok &= status.is_ok_and(|s| s.success());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
