//! The benchmark's three workloads: how each one's network, protocol
//! configuration, site resources and open-loop arrival stream are built from
//! the `--seed` argument. See `perfbench/README.md` for why each exists.

use rtds_core::{DemandRule, RtdsConfig, RtdsSystem};
use rtds_net::generators::DelayDistribution;
use rtds_net::Network;
pub use rtds_scenarios::mix_seed;
use rtds_scenarios::spec::BandwidthRecipe;
use rtds_scenarios::{ResourceRecipe, SpeedRecipe, TopologyRecipe, TopologySpec};
use rtds_sched::{SchedulerKind, SiteResources};
use rtds_workload::{JobFactory, JobTemplate, OpenLoopSource, OpenLoopSpec, RateProcess, SizeMix};
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16×16 grid, default configuration, Poisson arrivals over all sites.
    GridSteady,
    /// 1024-site sparse Erdős–Rényi graph, sphere radius 3, 64 hotspots.
    WideSphere,
    /// 8×8 grid with finite bandwidths, flows, multicore HEFT, bursts.
    HeteroDataBurst,
}

/// Sites of the `wide-sphere` graph.
const WIDE_SITES: usize = 1024;
/// Arrival sites of the `wide-sphere` stream.
const WIDE_HOTSPOTS: usize = 64;
/// Seed of the one `wide-sphere` graph every run uses. Random graphs of this
/// size differ enough around their hotspots to move `messages_per_job` by
/// ~17% between seeds (interquartile range over five seeds), so the graph is
/// fixed and the run seed varies the arrivals and the DAGs.
const WIDE_TOPOLOGY_SEED: u64 = 1;

impl Workload {
    /// Every workload, in the order the all-workloads mode runs them.
    pub const ALL: [Workload; 3] = [
        Workload::GridSteady,
        Workload::WideSphere,
        Workload::HeteroDataBurst,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridSteady => "grid-steady",
            Workload::WideSphere => "wide-sphere",
            Workload::HeteroDataBurst => "hetero-data-burst",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs per simulation: one to four host seconds on a 2-vCPU x86-64
    /// VM, and enough accepted jobs for the `accept_latency` p99 tail.
    pub fn jobs(self) -> u64 {
        match self {
            Workload::GridSteady => 24_000,
            Workload::WideSphere => 24_000,
            Workload::HeteroDataBurst => 16_000,
        }
    }

    /// The protocol configuration.
    pub fn config(self) -> RtdsConfig {
        match self {
            Workload::GridSteady => RtdsConfig::default(),
            Workload::WideSphere => RtdsConfig {
                sphere_radius: 3,
                ..RtdsConfig::default()
            },
            Workload::HeteroDataBurst => RtdsConfig {
                flow_transfers: true,
                data_volume_aware: true,
                scheduler: SchedulerKind::Heft,
                demand: DemandRule::WideTasks {
                    cores: 4,
                    parallel_fraction: 0.9,
                    memory: 8.0,
                },
                ..RtdsConfig::default()
            },
        }
    }

    /// Topology, link delays and bandwidths.
    fn topology(self) -> TopologySpec {
        let grid = |side| TopologyRecipe::Grid {
            width: side,
            height: side,
            wrap: false,
        };
        let (recipe, delays, bandwidths) = match self {
            Workload::GridSteady => (
                grid(16),
                DelayDistribution::Constant(1.0),
                BandwidthRecipe::Unlimited,
            ),
            Workload::WideSphere => (
                TopologyRecipe::ErdosRenyi {
                    sites: WIDE_SITES,
                    // The spanning tree gives average degree ~2; this adds ~1.
                    edge_prob: 1.0 / (WIDE_SITES as f64 - 1.0),
                },
                DelayDistribution::Uniform { min: 0.5, max: 1.5 },
                BandwidthRecipe::Unlimited,
            ),
            Workload::HeteroDataBurst => (
                grid(8),
                DelayDistribution::Constant(1.0),
                BandwidthRecipe::UniformRandom { min: 0.5, max: 4.0 },
            ),
        };
        TopologySpec {
            recipe,
            delays,
            bandwidths,
            speeds: SpeedRecipe::Identical,
        }
    }

    /// The network, a pure function of the seed (one fixed graph for
    /// `wide-sphere`).
    pub fn network(self, seed: u64) -> Network {
        let seed = match self {
            Workload::WideSphere => WIDE_TOPOLOGY_SEED,
            Workload::GridSteady | Workload::HeteroDataBurst => seed,
        };
        self.topology().build(mix_seed(seed, 1))
    }

    /// One resource bundle per site.
    pub fn resources(self, sites: usize) -> Vec<SiteResources> {
        let recipe = match self {
            Workload::GridSteady | Workload::WideSphere => ResourceRecipe::SingleCore,
            Workload::HeteroDataBurst => ResourceRecipe::Heterogeneous {
                min_cores: 1,
                max_cores: 4,
                memory: 64.0,
            },
        };
        recipe.bundles(sites)
    }

    /// The open-loop arrival stream's parameters.
    pub fn arrivals(self) -> OpenLoopSpec {
        let (process, sizes, hotspots) = match self {
            Workload::GridSteady => (
                RateProcess::Poisson { rate: 1.0 },
                SizeMix::Uniform { min: 5, max: 9 },
                0,
            ),
            Workload::WideSphere => (
                RateProcess::Poisson { rate: 1.0 },
                SizeMix::Uniform { min: 5, max: 9 },
                WIDE_HOTSPOTS,
            ),
            Workload::HeteroDataBurst => (
                RateProcess::OnOff {
                    on_rate: 2.0,
                    off_rate: 0.1,
                    mean_on: 20.0,
                    mean_off: 40.0,
                },
                SizeMix::Pareto {
                    alpha: 1.5,
                    min: 4,
                    cap: 32,
                },
                0,
            ),
        };
        OpenLoopSpec {
            process,
            sizes,
            hotspots,
            horizon: f64::INFINITY,
            max_jobs: self.jobs(),
        }
    }

    /// DAG shape, costs, data volumes and deadlines of every job.
    pub fn template(self) -> JobTemplate {
        match self {
            Workload::GridSteady | Workload::WideSphere => JobTemplate::default(),
            Workload::HeteroDataBurst => JobTemplate {
                ccr: 1.0,
                laxity: (1.8, 3.0),
                ..JobTemplate::default()
            },
        }
    }

    /// The job stream, a pure function of the seed.
    pub fn source(self, seed: u64, sites: usize) -> JobFactory<OpenLoopSource> {
        JobFactory::new(
            self.arrivals().build(sites, mix_seed(seed, 2)),
            self.template(),
        )
    }
}

/// A system and its job stream, ready to run.
pub struct Prepared {
    /// The deployed system.
    pub system: RtdsSystem,
    /// Its job stream.
    pub source: JobFactory<OpenLoopSource>,
    /// Host time spent building both.
    pub setup: Duration,
}

/// Builds the network, system, resources and source of one simulation,
/// timing the whole set-up.
pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let start = Instant::now();
    let network = workload.network(seed);
    let sites = network.site_count();
    let resources = workload.resources(sites);
    let system =
        RtdsSystem::with_resources(network, workload.config(), mix_seed(seed, 5), resources);
    let source = workload.source(seed, sites);
    Prepared {
        system,
        source,
        setup: start.elapsed(),
    }
}
