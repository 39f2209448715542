//! Per-layer rows, each timed from outside around public calls (host
//! corrected like the end-to-end reps) or read as an exact count.
//!
//! Every row is measured on its layer's home workload, scaled down so the
//! whole suite takes a few seconds: `tpms_paper` at 64 nodes,
//! `motion_ckpt` at 16 nodes (Serial unless the row is about threads) and
//! `relay_mesh` as one of its three 16-node lines. The rows therefore read the same
//! whichever workload `--trace 1` names; the traced run of that workload
//! adds `trace.*`.

use crate::alloc;
use crate::host::HostClock;
use crate::report::Row;
use crate::stats::median;
use crate::workloads::{
    parse_checkpoint, setup, threads, CountingSink, Engine, Prepared, Workload,
};
use picocube_mcu::{asm, Mcu};
use picocube_node::{
    capture_sweep, merge_fleet, run_fleet_partial, run_fleet_with, run_mesh_with, simulate_node,
    AirSlot, FleetConfig, Parallelism, Scenario, StackCheckpoint,
};
use picocube_power::charge_pump::ChargePump;
use picocube_radio::{Channel, Link, PatchAntenna};
use picocube_sim::{EventQueue, PowerLedger, SimDuration, SimRng, SimTime};
use picocube_storage::{NimhCell, StorageElement};
use picocube_telemetry::{keys, Metrics, NullRecorder};
use picocube_units::json::ToJson;
use picocube_units::{Amps, Db, Dbm, Hertz, Meters, Seconds, Volts};
use std::hint::black_box;

/// Timed batches per row; the row reports their median.
const BATCHES: usize = 5;

/// Home-config sizes.
const TPMS_NODES: usize = 64;
const MOTION_NODES: usize = 16;

/// Measures every per-layer row under `seed`.
pub fn measure(seed: u64) -> Result<Vec<Row>, String> {
    let mut clock = HostClock::new();
    let mut rows = Vec::new();
    let tpms = setup(Workload::TpmsPaper, seed, TPMS_NODES)?;
    let motion = setup(Workload::MotionCkpt, seed, MOTION_NODES)?;
    let mesh = setup(Workload::RelayMesh, seed, Workload::RelayMesh.nodes())?;
    stack_rows(&mut clock, &tpms, &mut rows)?;
    mcu_rows(&mut clock, &motion, &mut rows)?;
    sim_rows(&mut clock, &mut rows);
    let offered = fleet_rows(&mut clock, &motion, seed, &mut rows)?;
    json_rows(&mut clock, &motion, offered, &mut rows)?;
    telemetry_rows(&mut clock, &tpms, &motion, &mut rows)?;
    mesh_rows(&mut clock, &mesh, &mut rows)?;
    Ok(rows)
}

/// Host-corrected seconds per unit of work over [`BATCHES`] batches;
/// `batch` returns how many units it did.
fn per_unit(clock: &mut HostClock, mut batch: impl FnMut() -> f64) -> Vec<f64> {
    (0..BATCHES)
        .map(|_| {
            let (t, units) = clock.time(&mut batch);
            t.wall() / units
        })
        .collect()
}

fn fleet(prepared: &Prepared) -> Result<&FleetConfig, String> {
    prepared
        .fleet()
        .ok_or_else(|| "fleet workload expected".into())
}

fn serial(config: &FleetConfig) -> FleetConfig {
    FleetConfig {
        parallelism: Parallelism::Serial,
        ..config.clone()
    }
}

fn stack_rows(clock: &mut HostClock, tpms: &Prepared, rows: &mut Vec<Row>) -> Result<(), String> {
    let config = fleet(tpms)?;
    let checkpoint = |i| StackCheckpoint::for_fleet_node(config, i, SimDuration::ZERO, false);
    // Each node id has its own firmware image; assemble and decode them
    // all once, as the workload's warm-up rep does, before timing builds.
    for i in 0..config.nodes {
        black_box(checkpoint(i).resume().ok());
    }
    // One node at a time, dropped before the next is built, as the
    // streaming fleet does.
    let build = per_unit(clock, || {
        for i in 0..config.nodes {
            black_box(checkpoint(i).resume().ok());
        }
        config.nodes as f64
    });
    rows.push(Row::sampled("stack.build_us", "us", scale(build, 1e6)));

    let mut run = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut nodes = (0..config.nodes)
            .map(|i| checkpoint(i).resume().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let (t, ()) = clock.time(|| {
            for node in &mut nodes {
                black_box(node.run_for(config.duration));
            }
        });
        run.push(t.wall() * 1e6 / tpms.node_seconds());
    }
    rows.push(Row::sampled("stack.run_us_per_node_s", "us/node_s", run));

    // Exact in this single-threaded section: one node's build, run and
    // packaging, averaged over the fleet.
    let (_, counts) = alloc::count(|| {
        for i in 0..config.nodes {
            black_box(simulate_node(config, i));
        }
    });
    let n = config.nodes as f64;
    rows.push(Row::exact(
        "stack.allocs_per_node",
        "count",
        counts.allocs as f64 / n,
    ));
    rows.push(Row::exact(
        "stack.heap_bytes_per_node",
        "B",
        counts.bytes as f64 / n,
    ));

    let (_, metrics) = run_fleet_with(config, &mut NullRecorder);
    let hits = metrics.counter(keys::BOARD_SWITCH_OP_CACHE_HITS) as f64;
    let misses = metrics.counter(keys::BOARD_SWITCH_OP_CACHE_MISSES) as f64;
    rows.push(Row::exact(
        "switch.op_cache_hit_ratio",
        "fraction",
        hits / (hits + misses),
    ));
    Ok(())
}

/// A register-only countdown loop: no GPIO, SPI or mode change, so one
/// `run_segment` call runs it until the instruction budget.
const MCU_LOOP: &str = r#"
        .org 0xF000
start:  mov #0x0A00, sp
loop:   mov #0xFFFF, r4
inner:  add r4, r5
        dec r4
        jnz inner
        jmp loop
        .vector reset, start
"#;

/// Instructions per timed MCU batch.
const MCU_INSNS: usize = 400_000;

fn mcu_rows(clock: &mut HostClock, motion: &Prepared, rows: &mut Vec<Row>) -> Result<(), String> {
    let image = asm::assemble(MCU_LOOP).map_err(|e| format!("mcu loop: {e:?}"))?;
    for (name, translated) in [
        ("mcu.decoded_minsn_per_s", true),
        ("mcu.interp_minsn_per_s", false),
    ] {
        let mut mcu = Mcu::new();
        mcu.load(&image);
        mcu.reset();
        mcu.set_translation(translated);
        let mut deltas = Vec::with_capacity(MCU_INSNS);
        let secs_per_insn = per_unit(clock, || {
            deltas.clear();
            mcu.run_segment(u64::MAX, MCU_INSNS, &mut deltas);
            deltas.len() as f64
        });
        rows.push(Row::sampled(name, "Minsn/s", invert(secs_per_insn, 1e-6)));
    }
    let (_, metrics) = run_fleet_with(&serial(fleet(motion)?), &mut NullRecorder);
    let active = metrics.counter(keys::MCU_ACTIVE_NS) as f64;
    let lpm = metrics.counter(keys::MCU_LPM_NS) as f64;
    rows.push(Row::exact(
        "mcu.active_share",
        "fraction",
        active / (active + lpm),
    ));
    Ok(())
}

/// Calls per timed batch of the small-kernel rows.
const CALLS: usize = 100_000;

fn sim_rows(clock: &mut HostClock, rows: &mut Vec<Row>) {
    let mut ledger = PowerLedger::new();
    let rail = ledger.add_rail("VBAT", Volts::new(1.2));
    for (k, micro_amps) in [2.0, 0.5, 150.0, 0.0].into_iter().enumerate() {
        let load = ledger
            .register_load(rail, format!("load{k}"))
            .expect("rail was issued by this ledger");
        ledger
            .set_load_current(load, Amps::from_micro(micro_amps))
            .expect("load was issued by this ledger");
    }
    let mut now = 0u64;
    let advance = per_unit(clock, || {
        for _ in 0..CALLS {
            now += 1_000;
            ledger.advance_to(SimTime::from_nanos(now));
        }
        CALLS as f64
    });
    rows.push(Row::sampled(
        "sim.ledger_advance_ns",
        "ns",
        scale(advance, 1e9),
    ));

    let deltas: Vec<u32> = (0..1024u32).map(|i| 1 + (i * 7 + i / 3) % 6).collect();
    let replay = per_unit(clock, || {
        for _ in 0..CALLS / 1024 {
            ledger.advance_deltas(&deltas);
        }
        ((CALLS / 1024) * deltas.len()) as f64
    });
    rows.push(Row::sampled(
        "sim.ledger_deltas_ns_per_insn",
        "ns",
        scale(replay, 1e9),
    ));

    let mut queue = EventQueue::<u32>::new();
    let queue_ns = per_unit(clock, || {
        let n = CALLS / 10;
        for i in 0..n as u64 {
            queue.push(SimTime::from_nanos(i * 7_919 % 50_000), i as u32);
        }
        while black_box(queue.pop()).is_some() {}
        n as f64
    });
    rows.push(Row::sampled(
        "sim.queue_push_pop_ns",
        "ns",
        scale(queue_ns, 1e9),
    ));

    let pump = ChargePump::tps60313();
    let pump_ns = per_unit(clock, || {
        for i in 0..CALLS {
            let iout = Amps::from_micro(1.0 + (i % 400) as f64);
            black_box(pump.convert(black_box(Volts::new(1.2)), iout).ok());
        }
        CALLS as f64
    });
    rows.push(Row::sampled(
        "power.pump_convert_ns",
        "ns",
        scale(pump_ns, 1e9),
    ));

    let mut cell = NimhCell::picocube();
    let cell_ns = per_unit(clock, || {
        for i in 0..CALLS {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            black_box(cell.step(Amps::from_micro(sign * 300.0), Seconds::new(1e-3)));
        }
        CALLS as f64
    });
    rows.push(Row::sampled(
        "storage.nimh_step_ns",
        "ns",
        scale(cell_ns, 1e9),
    ));
}

/// The fleet engine's receiver link (the paper's patch antenna in the
/// demo room).
fn fleet_link() -> Link {
    Link {
        tx_power: Dbm::new(0.8),
        tx_gain: PatchAntenna::as_built().gain_dbi(Hertz::new(1.863e9)),
        rx_gain: Db::new(0.0),
        orientation_loss: Db::new(2.0),
        channel: Channel::demo_room(),
    }
}

/// Returns the packets the Serial motion home config offers.
fn fleet_rows(
    clock: &mut HostClock,
    motion: &Prepared,
    seed: u64,
    rows: &mut Vec<Row>,
) -> Result<f64, String> {
    // Synthetic dense channel: 8192 frames of 1.3 ms over 60 s from 64
    // transmitters.
    let mut rng = SimRng::seed_from(seed);
    let mut slots: Vec<AirSlot> = (0..8192)
        .map(|i| {
            let start = SimTime::from_nanos(rng.next_u64() % 60_000_000_000);
            AirSlot {
                node: i % 64,
                start,
                end: start + SimDuration::from_micros(1_300),
                rx_dbm: Dbm::new(rng.uniform(-80.0, -40.0)),
            }
        })
        .collect();
    slots.sort_by_key(|s| (s.start, s.node));
    let capture = per_unit(clock, || {
        black_box(capture_sweep(&slots, Db::new(10.0)));
        slots.len() as f64
    });
    rows.push(Row::sampled(
        "fleet.capture_ns_per_packet",
        "ns",
        scale(capture, 1e9),
    ));

    let config = serial(fleet(motion)?);
    let nodes: Vec<_> = (0..config.nodes)
        .map(|i| simulate_node(&config, i))
        .collect();
    let offered = merge_fleet(&config, nodes.clone()).offered as f64;
    let mut merge = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let input = nodes.clone();
        let (t, _) = clock.time(|| merge_fleet(&config, input));
        merge.push(t.wall() * 1e9 / offered);
    }
    rows.push(Row::sampled("fleet.merge_ns_per_packet", "ns", merge));

    let link = fleet_link();
    let try_packet = per_unit(clock, || {
        for _ in 0..CALLS {
            black_box(link.try_packet(Meters::new(4.0), 104, &mut rng));
        }
        CALLS as f64
    });
    rows.push(Row::sampled(
        "radio.try_packet_ns",
        "ns",
        scale(try_packet, 1e9),
    ));

    // Peak live heap of a streaming Serial run, per packet: the packet
    // records the merge keeps plus one live node stack.
    let (_, counts) = alloc::count(|| black_box(run_fleet_with(&config, &mut NullRecorder)));
    rows.push(Row::exact(
        "fleet.heap_bytes_per_packet",
        "B",
        counts.peak_live as f64 / offered,
    ));

    // Paired Threads(nproc) vs Serial on the same config.
    let threaded = FleetConfig {
        parallelism: threads(),
        ..config.clone()
    };
    let (mut t_serial, mut t_threads) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        t_serial.push(
            clock
                .time(|| run_fleet_with(&config, &mut NullRecorder))
                .0
                .wall(),
        );
        t_threads.push(
            clock
                .time(|| run_fleet_with(&threaded, &mut NullRecorder))
                .0
                .wall(),
        );
    }
    rows.push(Row::exact(
        "fleet.thread_speedup",
        "x",
        median(&t_serial) / median(&t_threads),
    ));
    Ok(offered)
}

fn json_rows(
    clock: &mut HostClock,
    motion: &Prepared,
    offered: f64,
    rows: &mut Vec<Row>,
) -> Result<(), String> {
    let config = serial(fleet(motion)?);
    // The complete fold with events: what the workload's cut writes,
    // at its largest.
    let checkpoint =
        run_fleet_partial(&config, None, config.nodes, true).map_err(|e| e.to_string())?;
    let mut text = String::new();
    let encode = per_unit(clock, || {
        text = checkpoint.to_json().to_string();
        text.len() as f64
    });
    rows.push(Row::sampled(
        "json.ckpt_encode_mb_per_s",
        "MB/s",
        invert(encode, 1e-6),
    ));
    let mut decoded = Ok(checkpoint.clone());
    let decode = per_unit(clock, || {
        decoded = parse_checkpoint(&text);
        text.len() as f64
    });
    if decoded.as_ref() != Ok(&checkpoint) {
        return Err("checkpoint JSON did not round-trip".into());
    }
    rows.push(Row::sampled(
        "json.ckpt_decode_mb_per_s",
        "MB/s",
        invert(decode, 1e-6),
    ));
    rows.push(Row::exact(
        "json.ckpt_bytes_per_packet",
        "B",
        text.len() as f64 / offered,
    ));
    Ok(())
}

fn telemetry_rows(
    clock: &mut HostClock,
    tpms: &Prepared,
    motion: &Prepared,
    rows: &mut Vec<Row>,
) -> Result<(), String> {
    let spec_text = Workload::TpmsPaper.spec_json(tpms.spec.seed, Workload::TpmsPaper.nodes());
    let parse = per_unit(clock, || {
        for _ in 0..200 {
            black_box(Scenario::parse(black_box(&spec_text)).ok());
        }
        200.0
    });
    rows.push(Row::sampled("scenario.parse_us", "us", scale(parse, 1e6)));

    let config = fleet(tpms)?;
    let registries = (0..config.nodes)
        .map(|i| {
            let mut node = StackCheckpoint::for_fleet_node(config, i, SimDuration::ZERO, false)
                .resume()
                .map_err(|e| e.to_string())?;
            node.run_for(config.duration);
            Ok(node.drain_telemetry().metrics)
        })
        .collect::<Result<Vec<Metrics>, String>>()?;
    let fold = per_unit(clock, || {
        let mut merged = Metrics::new();
        for _ in 0..20 {
            for registry in &registries {
                merged.merge_from(registry);
            }
        }
        black_box(merged);
        (20 * registries.len()) as f64
    });
    rows.push(Row::sampled(
        "telemetry.fold_ns_per_node",
        "ns",
        scale(fold, 1e9),
    ));

    // Paired counting sink vs NullRecorder on the same Serial config.
    let config = serial(fleet(motion)?);
    let (mut counted, mut null, mut events) = (Vec::new(), Vec::new(), 0);
    for _ in 0..BATCHES {
        let mut sink = CountingSink::default();
        counted.push(clock.time(|| run_fleet_with(&config, &mut sink)).0.wall());
        events = sink.events;
        null.push(
            clock
                .time(|| run_fleet_with(&config, &mut NullRecorder))
                .0
                .wall(),
        );
    }
    rows.push(Row::exact(
        "telemetry.events_per_node_s",
        "1/node_s",
        events as f64 / motion.node_seconds(),
    ));
    let (with, without) = (median(&counted), median(&null));
    rows.push(Row::exact(
        "telemetry.event_cost_share",
        "fraction",
        (with - without) / with,
    ));
    Ok(())
}

fn mesh_rows(clock: &mut HostClock, mesh: &Prepared, rows: &mut Vec<Row>) -> Result<(), String> {
    let Some(config) = (match &mesh.engine {
        Engine::Mesh(lines) => lines.first(),
        Engine::Fleet(_) => None,
    }) else {
        return Err("mesh workload expected".into());
    };
    let windows = config.duration.as_nanos() as f64 / config.turnaround.as_nanos() as f64;
    let relays = run_mesh_with(config, &mut NullRecorder)
        .map_err(|e| e.to_string())?
        .0
        .relays;
    let window = per_unit(clock, || {
        black_box(run_mesh_with(config, &mut NullRecorder).ok());
        windows
    });
    rows.push(Row::sampled("mesh.us_per_window", "us", scale(window, 1e6)));
    let node_s = config.nodes as f64 * config.duration.as_nanos() as f64 * 1e-9;
    rows.push(Row::exact(
        "mesh.relays_per_node_s",
        "1/node_s",
        relays as f64 / node_s,
    ));
    Ok(())
}

fn scale(values: Vec<f64>, by: f64) -> Vec<f64> {
    values.into_iter().map(|v| v * by).collect()
}

/// Turns seconds-per-unit into units-per-second, in millions when
/// `unit` is `1e-6`.
fn invert(secs_per_unit: Vec<f64>, unit: f64) -> Vec<f64> {
    secs_per_unit.into_iter().map(|s| unit / s).collect()
}
