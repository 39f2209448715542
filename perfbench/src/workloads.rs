//! The three benchmark workloads: generated scenario specs, their set-up,
//! one timed rep each, and the once-per-run invariance checks.

use crate::check::{fnv1a_extend, Outcome};
use picocube_node::{
    run_fleet_partial, run_fleet_resumable, run_fleet_with, run_mesh_with, run_scenario_with,
    FleetCheckpoint, FleetConfig, FleetOutcome, MeshConfig, MeshOutcome, Parallelism, Scenario,
    StackCheckpoint,
};
use picocube_sim::{SimDuration, SimRng};
use picocube_telemetry::{Event, Metrics, NullRecorder, Recorder};
use picocube_units::json::{FromJson, Json, ToJson};
use std::sync::OnceLock;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's TPMS node fleet, from a JSON scenario, Serial.
    TpmsPaper,
    /// §6 motion nodes on Threads(nproc), cut once through a JSON
    /// checkpoint, events into a counting sink.
    MotionCkpt,
    /// A wakeup-receiver relay line on the coupled mesh engine, Serial.
    RelayMesh,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Self; 3] = [Self::TpmsPaper, Self::MotionCkpt, Self::RelayMesh];

    /// The workload's command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Self::TpmsPaper => "tpms_paper",
            Self::MotionCkpt => "motion_ckpt",
            Self::RelayMesh => "relay_mesh",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nodes per timed rep.
    pub fn nodes(self) -> usize {
        match self {
            Self::TpmsPaper => 256,
            Self::MotionCkpt => 64,
            Self::RelayMesh => 16,
        }
    }

    /// Simulated seconds per rep.
    pub fn duration_s(self) -> f64 {
        match self {
            Self::TpmsPaper | Self::RelayMesh => 30.0,
            Self::MotionCkpt => 60.0,
        }
    }

    /// Independent engine runs per rep, each under its own seed fanned
    /// from the run's seed. A relay line's cost depends on its seed (its
    /// relay and false-wake pattern) by up to a third, so a mesh rep runs
    /// several lines and averages that out; fleet costs barely depend on
    /// the seed.
    pub fn runs_per_rep(self) -> usize {
        match self {
            Self::RelayMesh => 3,
            Self::TpmsPaper | Self::MotionCkpt => 1,
        }
    }

    /// The generated scenario spec for `nodes` nodes under `seed`.
    pub fn spec_json(self, seed: u64, nodes: usize) -> String {
        let (name, duration) = (self.name(), self.duration_s());
        let extra = match self {
            // SP12 board with its 6 s wake, the default automotive
            // harvester and the NiMH cell: every stock default.
            Self::TpmsPaper => String::new(),
            // The retreat motion table: 20 s rest, 8 s handling, 1.2 g.
            Self::MotionCkpt => {
                r#","app":{"Motion":{"rest_s":20.0,"handled_s":8.0,"vigor_g":1.2}}"#.to_string()
            }
            Self::RelayMesh => {
                r#","mesh":{"sink_offset_m":2.0,"spacing_m":2.5,"turnaround_ms":20,"max_hops":4}"#
                    .to_string()
            }
        };
        format!(
            r#"{{"name":"{name}","seed":{seed},"duration_s":{duration:.1},"nodes":{nodes}{extra}}}"#
        )
    }

    /// Phase-1 execution mode of the workload's timed reps.
    pub fn parallelism(self) -> Parallelism {
        match self {
            Self::MotionCkpt => threads(),
            Self::TpmsPaper | Self::RelayMesh => Parallelism::Serial,
        }
    }
}

/// Threads(nproc): the machine's hardware threads, never more.
pub fn threads() -> Parallelism {
    Parallelism::Threads(hardware_threads())
}

/// `available_parallelism` as first read in this process, 1 when
/// unknown. Read once, so pinning the process to one CPU afterwards does
/// not shrink it.
pub fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The engine configuration a spec lowers onto.
// One value exists per run, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Engine {
    /// The streaming fleet engine.
    Fleet(FleetConfig),
    /// The windowed-sync mesh engine: one config per relay line.
    Mesh(Vec<MeshConfig>),
}

/// A workload ready to run: parsed spec, lowered config, probe-built.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The parsed spec.
    pub spec: Scenario,
    /// The spec lowered onto its engine, in the rep's parallelism mode.
    pub engine: Engine,
}

impl Prepared {
    /// Nodes simulated per rep, across all its engine runs.
    pub fn nodes(&self) -> usize {
        self.spec.nodes * self.workload.runs_per_rep()
    }

    /// Simulated node-seconds per rep.
    pub fn node_seconds(&self) -> f64 {
        self.nodes() as f64 * self.spec.duration_s
    }

    /// The fleet config (fleet workloads only).
    pub fn fleet(&self) -> Option<&FleetConfig> {
        match &self.engine {
            Engine::Fleet(config) => Some(config),
            Engine::Mesh(_) => None,
        }
    }
}

/// Set-up: spec generation and parse, config lowering, and a probe build
/// of node 0, which assembles and decodes the firmware image.
pub fn setup(workload: Workload, seed: u64, nodes: usize) -> Result<Prepared, String> {
    let text = workload.spec_json(seed, nodes);
    let spec = Scenario::parse(&text).map_err(|e| format!("spec: {e}"))?;
    let parallelism = workload.parallelism();
    let engine = match workload {
        Workload::RelayMesh => {
            let line = spec.mesh_config(parallelism).map_err(|e| e.to_string())?;
            Engine::Mesh(
                (0..workload.runs_per_rep() as u64)
                    .map(|k| MeshConfig {
                        seed: SimRng::fan_seed(seed, k),
                        ..line.clone()
                    })
                    .collect(),
            )
        }
        _ => Engine::Fleet(spec.fleet_config(parallelism).map_err(|e| e.to_string())?),
    };
    let probe = match &engine {
        Engine::Fleet(config) => {
            StackCheckpoint::for_fleet_node(config, 0, SimDuration::ZERO, false)
        }
        Engine::Mesh(lines) => {
            let line = lines.first().ok_or("mesh workload without lines")?;
            StackCheckpoint::new(line.base.clone(), line.app, SimDuration::ZERO, false)
        }
    };
    probe.resume().map_err(|e| format!("probe build: {e}"))?;
    Ok(Prepared {
        workload,
        spec,
        engine,
    })
}

/// An in-memory sink that keeps only a count and an order-sensitive
/// digest of the events it receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    /// Events received.
    pub events: u64,
    /// FNV-1a over each event's time, node and kind tag.
    pub digest: u64,
}

impl Default for CountingSink {
    fn default() -> Self {
        Self {
            events: 0,
            digest: crate::check::fnv1a(b""),
        }
    }
}

impl Recorder for CountingSink {
    fn record(&mut self, event: &Event) {
        self.events += 1;
        let mut h = fnv1a_extend(self.digest, &event.t_ns.to_le_bytes());
        h = fnv1a_extend(h, &event.node.to_le_bytes());
        self.digest = fnv1a_extend(h, event.kind.tag().as_bytes());
    }
}

/// The fleet engine's outcome in the benchmark's vocabulary.
pub fn fleet_outcome(outcome: &FleetOutcome, metrics: Metrics, sink: CountingSink) -> Outcome {
    Outcome {
        offered: outcome.offered,
        delivered: outcome.delivered,
        collided: outcome.collided,
        channel_losses: outcome.channel_losses,
        faulted: outcome.faulted,
        unique_offered: outcome.offered,
        unique_delivered: outcome.delivered,
        relays: 0,
        events: sink.events,
        event_digest: sink.digest,
        metrics,
    }
}

/// The mesh engine's outcome in the benchmark's vocabulary.
fn mesh_outcome(outcome: &MeshOutcome, metrics: Metrics) -> Outcome {
    Outcome {
        unique_offered: outcome.unique_offered,
        unique_delivered: outcome.unique_delivered,
        relays: outcome.relays,
        ..fleet_outcome(&outcome.sink, metrics, CountingSink::default())
    }
}

/// Runs every relay line (under `parallelism`, when given) and sums their
/// outcomes, metrics merged in line order.
pub fn run_lines(
    lines: &[MeshConfig],
    parallelism: Option<Parallelism>,
) -> Result<Outcome, String> {
    let mut total: Option<Outcome> = None;
    for line in lines {
        let config = MeshConfig {
            parallelism: parallelism.unwrap_or(line.parallelism),
            ..line.clone()
        };
        let (outcome, metrics) =
            run_mesh_with(&config, &mut NullRecorder).map_err(|e| e.to_string())?;
        let outcome = mesh_outcome(&outcome, metrics);
        total = Some(match total {
            None => outcome,
            Some(sum) => sum.plus(outcome),
        });
    }
    total.ok_or_else(|| "mesh workload without lines".into())
}

/// One timed rep of the workload.
pub fn run_rep(prepared: &Prepared) -> Result<Outcome, String> {
    match (&prepared.workload, &prepared.engine) {
        (Workload::TpmsPaper, _) => {
            let out = run_scenario_with(&prepared.spec, Parallelism::Serial, &mut NullRecorder)
                .map_err(|e| e.to_string())?;
            let run = out.runs.first().ok_or("scenario produced no run")?;
            Ok(Outcome {
                offered: run.offered,
                delivered: run.delivered,
                collided: run.collided,
                channel_losses: run.channel_losses,
                faulted: run.faulted,
                unique_offered: run.offered,
                unique_delivered: run.delivered,
                relays: 0,
                events: 0,
                event_digest: CountingSink::default().digest,
                metrics: out.metrics,
            })
        }
        (Workload::MotionCkpt, Engine::Fleet(config)) => checkpointed_run(config),
        (_, Engine::Mesh(lines)) => run_lines(lines, None),
        (_, Engine::Fleet(_)) => Err("fleet engine for a mesh workload".into()),
    }
}

/// The checkpoint leg's JSON text: the first half of the node range,
/// folded with events, captured and serialized.
fn first_leg_json(config: &FleetConfig) -> Result<String, String> {
    let leg = run_fleet_partial(config, None, config.nodes / 2, true).map_err(|e| e.to_string())?;
    Ok(leg.to_json().to_string())
}

/// Parses a checkpoint back from its JSON text.
pub fn parse_checkpoint(text: &str) -> Result<FleetCheckpoint, String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    FleetCheckpoint::from_json(&json).map_err(|e| e.to_string())
}

/// The motion workload's rep: two legs joined through checkpoint JSON.
fn checkpointed_run(config: &FleetConfig) -> Result<Outcome, String> {
    let resume = parse_checkpoint(&first_leg_json(config)?)?;
    let mut sink = CountingSink::default();
    let (outcome, metrics) =
        run_fleet_resumable(config, Some(&resume), &mut sink).map_err(|e| e.to_string())?;
    Ok(fleet_outcome(&outcome, metrics, sink))
}

/// The once-per-run checks, run outside the timed reps against the first
/// rep's outcome: Threads(nproc) equals Serial, and a resumed run equals
/// an uninterrupted one. Returns `(check name, passed)` pairs.
pub fn invariance_checks(prepared: &Prepared, first: &Outcome) -> Vec<(&'static str, bool)> {
    let same = |other: Result<Outcome, String>| other.is_ok_and(|o| &o == first);
    match &prepared.engine {
        Engine::Fleet(config) => {
            let serial = FleetConfig {
                parallelism: Parallelism::Serial,
                ..config.clone()
            };
            let threaded = FleetConfig {
                parallelism: threads(),
                ..config.clone()
            };
            match prepared.workload {
                // The rep is a Serial, uninterrupted scenario run.
                Workload::TpmsPaper => vec![
                    (
                        "threads_eq_serial",
                        same(Ok(uninterrupted(&threaded, false))),
                    ),
                    ("resumed_eq_uninterrupted", same(resumed(&serial))),
                ],
                // The rep is a Threads(nproc), checkpointed run.
                _ => vec![
                    ("threads_eq_serial", same(checkpointed_run(&serial))),
                    (
                        "resumed_eq_uninterrupted",
                        same(Ok(uninterrupted(&threaded, true))),
                    ),
                ],
            }
        }
        // The mesh engine has no checkpoint; only parallelism is checked.
        Engine::Mesh(lines) => vec![("threads_eq_serial", same(run_lines(lines, Some(threads()))))],
    }
}

/// One uninterrupted fleet run, with or without the counting sink.
fn uninterrupted(config: &FleetConfig, events: bool) -> Outcome {
    if events {
        let mut sink = CountingSink::default();
        let (outcome, metrics) = run_fleet_with(config, &mut sink);
        fleet_outcome(&outcome, metrics, sink)
    } else {
        let (outcome, metrics) = run_fleet_with(config, &mut NullRecorder);
        fleet_outcome(&outcome, metrics, CountingSink::default())
    }
}

/// A run cut after a third of the nodes, through JSON, without events.
fn resumed(config: &FleetConfig) -> Result<Outcome, String> {
    let leg =
        run_fleet_partial(config, None, config.nodes / 3, false).map_err(|e| e.to_string())?;
    let resume = parse_checkpoint(&leg.to_json().to_string())?;
    let (outcome, metrics) =
        run_fleet_resumable(config, Some(&resume), &mut NullRecorder).map_err(|e| e.to_string())?;
    Ok(fleet_outcome(&outcome, metrics, CountingSink::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn specs_are_seeded_and_parse() {
        for w in Workload::ALL {
            let a = Scenario::parse(&w.spec_json(3, 4)).expect("spec parses");
            let b = Scenario::parse(&w.spec_json(4, 4)).expect("spec parses");
            assert_eq!((a.seed, a.nodes, a.duration_s), (3, 4, w.duration_s()));
            assert_ne!(a, b);
            assert_eq!(a.mesh.is_some(), w == Workload::RelayMesh);
        }
    }

    #[test]
    fn counting_sink_digest_is_order_sensitive() {
        use picocube_telemetry::EventKind;
        let a = Event::engine(1, EventKind::PhaseStart { phase: "x".into() });
        let b = Event::engine(2, EventKind::PhaseStart { phase: "x".into() });
        let (mut ab, mut ba) = (CountingSink::default(), CountingSink::default());
        ab.record(&a);
        ab.record(&b);
        ba.record(&b);
        ba.record(&a);
        assert_eq!((ab.events, ba.events), (2, 2));
        assert_ne!(ab.digest, ba.digest);
    }
}
