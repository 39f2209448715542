//! The traced run: per-layer rows plus a workload driven through finer
//! public calls with spans around each, alternated with untraced reps to
//! measure the tracing overhead.

use crate::check::Outcome;
use crate::host::HostClock;
use crate::layers;
use crate::report::Row;
use crate::stats::median;
use crate::workloads::{parse_checkpoint, run_lines, run_rep, Engine, Prepared, Workload};
use picocube_node::{
    merge_fleet, run_fleet_partial, simulate_node_instrumented, FleetCheckpoint, StackCheckpoint,
};
use picocube_sim::SimDuration;
use picocube_units::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Traced/untraced rep pairs always taken.
const MIN_PAIRS: usize = 3;

/// One span: a named interval and the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary crossed.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; spans are written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span recorded, in start order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span named `name`, nested under the span that
    /// is open when it starts.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = black_box(body(self));
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        out
    }

    /// Self time per span name over the spans from `first` on: each
    /// span's duration minus its direct children's.
    pub fn self_ns(&self, first: usize) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans[first..] {
            *totals.entry(span.name).or_insert(0i128) += i128::from(span.duration_ns());
            if let Some(parent) = span.parent.filter(|&p| p >= first) {
                *totals.entry(self.spans[parent].name).or_insert(0) -=
                    i128::from(span.duration_ns());
            }
        }
        totals
            .into_iter()
            .map(|(name, ns)| (name, ns.max(0) as u64))
            .collect()
    }

    /// Share of the root span at `root` covered by its direct children.
    pub fn coverage(&self, root: usize) -> f64 {
        let covered: u64 = self.spans[root..]
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::duration_ns)
            .sum();
        covered as f64 / self.spans[root].duration_ns().max(1) as f64
    }

    /// The spans as JSON rows.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.into())),
                        ("start_ns".into(), Json::UInt(s.start_ns)),
                        ("end_ns".into(), Json::UInt(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Everything one traced run measured.
#[derive(Debug)]
pub struct TraceRun {
    /// Layer measurements and traced reps attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// Per-layer rows plus `trace.coverage` and `trace.overhead_pct`.
    pub rows: Vec<Row>,
    /// Per-layer self times and pairing evidence.
    pub context: Vec<(String, Json)>,
    /// Every span recorded.
    pub spans: Json,
}

/// Measures the layer rows, then alternates untraced and traced reps of
/// the workload for the remaining `seconds` (at least [`MIN_PAIRS`]).
pub fn run(prepared: &Prepared, seed: u64, seconds: f64) -> TraceRun {
    let started = Instant::now();
    let mut failures = Vec::new();
    let mut attempted = 1u64;
    let mut rows = match layers::measure(seed) {
        Ok(rows) => rows,
        Err(error) => {
            failures.push(format!("layers: {error}"));
            Vec::new()
        }
    };

    let reference = run_rep(prepared);
    attempted += 1;
    let reference = match reference {
        Ok(outcome) => outcome,
        Err(error) => {
            failures.push(format!("reference rep: {error}"));
            return TraceRun {
                attempted,
                failed: failures.len() as u64,
                failures,
                rows,
                context: Vec::new(),
                spans: Json::Arr(Vec::new()),
            };
        }
    };
    // The motion workload's traced rep re-encodes the checkpoint its
    // untraced rep writes at the cut.
    let cut = match &prepared.engine {
        Engine::Fleet(config) if prepared.workload == Workload::MotionCkpt => {
            match run_fleet_partial(config, None, config.nodes / 2, true) {
                Ok(cut) => Some(cut),
                Err(error) => {
                    failures.push(format!("checkpoint cut: {error}"));
                    None
                }
            }
        }
        _ => None,
    };

    let mut clock = HostClock::new();
    let mut tracer = Tracer::new();
    let (mut untraced, mut traced, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
    let mut self_ns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let deadline = started + Duration::from_secs_f64(seconds);
    while untraced.len() < MIN_PAIRS || Instant::now() < deadline {
        untraced.push(clock.time(|| run_rep(prepared)).0.wall());
        let root = tracer.spans.len();
        let (t, same) = clock.time(|| traced_rep(prepared, cut.as_ref(), &reference, &mut tracer));
        attempted += 1;
        if let Err(error) = same {
            failures.push(format!("traced rep {}: {error}", traced.len()));
        }
        traced.push(t.wall());
        coverage.push(tracer.coverage(root));
        for (name, ns) in tracer.self_ns(root) {
            self_ns.entry(name).or_default().push(ns as f64 * 1e-6);
        }
    }
    let overhead_pct = (median(&traced) - median(&untraced)) / median(&untraced) * 100.0;
    rows.push(Row::sampled("trace.coverage", "fraction", coverage));
    rows.push(Row::exact("trace.overhead_pct", "%", overhead_pct));

    let self_ms = self_ns
        .into_iter()
        .map(|(name, ms)| (format!("{name}_self_ms"), Json::Num(median(&ms))))
        .collect();
    let context = vec![
        ("trace_pairs".into(), Json::UInt(traced.len() as u64)),
        ("untraced_rep_s".into(), Json::Num(median(&untraced))),
        ("traced_rep_s".into(), Json::Num(median(&traced))),
        ("layer_self_ms_per_rep".into(), Json::Obj(self_ms)),
    ];
    TraceRun {
        attempted,
        failed: failures.len() as u64,
        failures,
        rows,
        context,
        spans: tracer.to_json(),
    }
}

/// One traced rep, checked against the untraced reference outcome.
///
/// Fleet workloads run each node as a separate build (`stack.build`,
/// through `StackCheckpoint::resume`) and `run_for` (`stack.run_for`,
/// which also drops the node), then through the engine's own per-node
/// path (`fleet.simulate_node`), whose results `fleet.merge` merges; the
/// motion workload also encodes and decodes its cut checkpoint. The mesh
/// is one span (`mesh.run`) around its coupled relay-line runs.
fn traced_rep(
    prepared: &Prepared,
    cut: Option<&FleetCheckpoint>,
    reference: &Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    tracer.span("rep", |tracer| match &prepared.engine {
        Engine::Fleet(config) => {
            let events = prepared.workload == Workload::MotionCkpt;
            let mut on_air = Vec::with_capacity(config.nodes);
            for i in 0..config.nodes {
                let mut node = tracer
                    .span("stack.build", |_| {
                        StackCheckpoint::for_fleet_node(config, i, SimDuration::ZERO, events)
                            .resume()
                    })
                    .map_err(|e| e.to_string())?;
                tracer.span("stack.run_for", move |_| {
                    black_box(node.run_for(config.duration));
                    drop(node);
                });
                on_air.push(tracer.span("fleet.simulate_node", |_| {
                    simulate_node_instrumented(config, i, events)
                }));
            }
            let outcome = tracer.span("fleet.merge", |_| merge_fleet(config, on_air));
            if let Some(cut) = cut {
                let text = tracer.span("json.ckpt_encode", |_| cut.to_json().to_string());
                let decoded = tracer.span("json.ckpt_decode", |_| parse_checkpoint(&text))?;
                if &decoded != cut {
                    return Err("checkpoint JSON did not round-trip".into());
                }
            }
            let got = (
                outcome.offered,
                outcome.delivered,
                outcome.collided,
                outcome.channel_losses,
                outcome.faulted,
            );
            let want = (
                reference.offered,
                reference.delivered,
                reference.collided,
                reference.channel_losses,
                reference.faulted,
            );
            if got == want {
                Ok(())
            } else {
                Err(format!("traced outcome {got:?} != untraced {want:?}"))
            }
        }
        Engine::Mesh(lines) => {
            let total = tracer.span("mesh.run", |_| run_lines(lines, None))?;
            if &total == reference {
                Ok(())
            } else {
                Err("traced mesh outcome differs from untraced".into())
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let tracer = Tracer {
            origin: Instant::now(),
            spans: vec![
                span("rep", 0, 100, None),
                span("a", 0, 30, Some(0)),
                span("b", 40, 90, Some(0)),
                span("c", 50, 60, Some(2)),
            ],
            open: Vec::new(),
        };
        let selfs = tracer.self_ns(0);
        assert_eq!(selfs["rep"], 20);
        assert_eq!(selfs["a"], 30);
        assert_eq!(selfs["b"], 40);
        assert_eq!(selfs["c"], 10);
        assert!((tracer.coverage(0) - 0.8).abs() < 1e-12);
        // A window that starts at a child ignores the parent outside it.
        assert_eq!(tracer.self_ns(2)["b"], 40);
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut tracer = Tracer::new();
        let value = tracer.span("outer", |t| t.span("inner", |_| 5) + 1);
        assert_eq!(value, 6);
        assert_eq!(tracer.spans.len(), 2);
        assert_eq!(tracer.spans[0].parent, None);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert!(tracer.spans[0].start_ns <= tracer.spans[1].start_ns);
        assert!(tracer.spans[1].end_ns <= tracer.spans[0].end_ns);
        assert!(tracer.coverage(0) <= 1.0);
    }
}
