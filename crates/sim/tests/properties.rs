//! Property-based tests for the simulation kernel.

use picocube_sim::{EventQueue, LoadId, PowerLedger, RailId, ScalarTrace, SimTime};
use picocube_telemetry::Metrics;
use picocube_units::json::ToJson;
use picocube_units::{Amps, Volts};
use proptest::prelude::*;

/// One step of a ledger script: `(kind, which, value, dt_ns)`. Kind 0 sets
/// load `which`'s current to `value` A, kind 1 sets rail `which`'s voltage
/// to `value * 1e3` V, anything else advances the clock by `dt_ns`.
type LedgerStep = (u8, usize, f64, u64);

/// A two-rail, three-load ledger and its handles.
fn script_ledger() -> (PowerLedger, [RailId; 2], [LoadId; 3]) {
    let mut ledger = PowerLedger::new();
    let vbat = ledger.add_rail("VBAT", Volts::new(1.2));
    let vdd = ledger.add_rail("VDD", Volts::new(2.4));
    let loads = [
        ledger.register_load(vbat, "radio").unwrap(),
        ledger.register_load(vdd, "mcu").unwrap(),
        ledger.register_load(vdd, "sensor").unwrap(),
    ];
    (ledger, [vbat, vdd], loads)
}

/// Replays `script`, splitting every advance at the clock points `splits`
/// yields (each strictly inside the advance, in order).
fn replay(
    script: &[LedgerStep],
    mut splits: impl FnMut(u64, u64) -> Vec<u64>,
) -> (PowerLedger, [RailId; 2], [LoadId; 3]) {
    let (mut ledger, rails, loads) = script_ledger();
    for &(kind, which, value, dt_ns) in script {
        match kind {
            0 => ledger
                .set_load_current(loads[which % loads.len()], Amps::new(value))
                .unwrap(),
            1 => ledger
                .set_rail_voltage(rails[which % rails.len()], Volts::new(value * 1e3))
                .unwrap(),
            _ => {
                let from = ledger.now().as_nanos();
                for t in splits(from, from + dt_ns) {
                    ledger.advance_to(SimTime::from_nanos(t));
                }
                ledger.advance_to(SimTime::from_nanos(from + dt_ns));
            }
        }
    }
    (ledger, rails, loads)
}

/// Every energy the ledger reports, as exact bit patterns, plus the
/// exported metric registry.
fn energy_bits(
    (ledger, rails, loads): &(PowerLedger, [RailId; 2], [LoadId; 3]),
) -> (Vec<u64>, String) {
    let mut bits: Vec<u64> = loads
        .iter()
        .map(|&l| ledger.load_energy(l).unwrap().value().to_bits())
        .collect();
    bits.extend(
        rails
            .iter()
            .map(|&r| ledger.rail_energy(r).unwrap().value().to_bits()),
    );
    bits.push(ledger.total_energy().value().to_bits());
    bits.push(ledger.report().total_energy.value().to_bits());
    let mut metrics = Metrics::new();
    ledger.export_metrics(&mut metrics);
    (bits, metrics.to_json().to_string())
}

proptest! {
    #[test]
    fn queue_pops_in_nondecreasing_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn queue_is_fifo_within_equal_timestamps(
        groups in prop::collection::vec((0u64..100, 1usize..8), 1..30)
    ) {
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        for &(t, n) in &groups {
            for _ in 0..n {
                q.push(SimTime::from_nanos(t), seq);
                seq += 1;
            }
        }
        // Among events with the same timestamp, sequence numbers ascend.
        let mut per_time: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        while let Some((t, s)) = q.pop() {
            if let Some(&prev) = per_time.get(&t.as_nanos()) {
                prop_assert!(s > prev, "FIFO violated at t={t:?}");
            }
            per_time.insert(t.as_nanos(), s);
        }
    }

    #[test]
    fn ledger_energy_equals_hand_integration(
        schedule in prop::collection::vec((1u64..10_000, 0.0f64..5e-3), 1..50),
        voltage in 0.5f64..5.0,
    ) {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("r", Volts::new(voltage));
        let load = ledger.register_load(rail, "l").unwrap();
        let mut t = 0u64;
        let mut expected = 0.0;
        for &(dt_us, amps) in &schedule {
            ledger.set_load_current(load, Amps::new(amps)).unwrap();
            t += dt_us * 1_000;
            ledger.advance_to(SimTime::from_nanos(t));
            expected += voltage * amps * (dt_us as f64 * 1e-6);
        }
        let got = ledger.total_energy().value();
        prop_assert!((got - expected).abs() <= 1e-12 + 1e-9 * expected.abs(),
            "got {got}, expected {expected}");
    }

    #[test]
    fn ledger_energy_is_invariant_under_advance_chopping(
        script in prop::collection::vec((0u8..4, 0usize..3, 0.0f64..5e-3, 0u64..50_000_000), 1..60),
        cuts in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        // Draw-epoch accounting: advancing the clock does no arithmetic,
        // so splitting any advance into extra intermediate advances must
        // leave every energy bit-identical.
        let whole = energy_bits(&replay(&script, |_, _| Vec::new()));
        let mut cut = cuts.iter().cycle();
        let chopped = energy_bits(&replay(&script, |from, to| {
            let pieces = cut.next().map_or(0, |c| c % 4);
            let mut points: Vec<u64> = (0..pieces)
                .filter_map(|_| cut.next())
                .map(|c| from + c * (to - from) / 1_000_000)
                .collect();
            points.sort_unstable();
            points
        }));
        prop_assert_eq!(whole, chopped);
    }

    #[test]
    fn ledger_average_power_is_bounded_by_extremes(
        currents in prop::collection::vec(0.0f64..1e-2, 2..20)
    ) {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("r", Volts::new(1.2));
        let load = ledger.register_load(rail, "l").unwrap();
        for (i, &a) in currents.iter().enumerate() {
            ledger.set_load_current(load, Amps::new(a)).unwrap();
            ledger.advance_to(SimTime::from_millis((i as u64 + 1) * 10));
        }
        let avg = ledger.average_power().value();
        let max = currents.iter().cloned().fold(0.0, f64::max) * 1.2;
        prop_assert!(avg >= -1e-15 && avg <= max + 1e-12);
    }

    #[test]
    fn trace_stats_bound_recorded_values(
        samples in prop::collection::vec((1u64..1_000, -100.0f64..100.0), 2..50)
    ) {
        let mut trace = ScalarTrace::new("x");
        let mut t = 0u64;
        for &(dt, v) in &samples {
            t += dt;
            trace.record(SimTime::from_nanos(t), v);
        }
        let stats = trace.stats().unwrap();
        prop_assert!(stats.min <= stats.mean + 1e-12);
        prop_assert!(stats.mean <= stats.max + 1e-12);
        for &(_, v) in &samples {
            prop_assert!(v >= stats.min - 1e-12 && v <= stats.max + 1e-12);
        }
    }

    #[test]
    fn trace_zero_order_hold_returns_some_recorded_value(
        samples in prop::collection::vec((1u64..1_000, -10.0f64..10.0), 1..30),
        probe in 0u64..40_000,
    ) {
        let mut trace = ScalarTrace::new("x");
        let mut t = 0u64;
        let mut recorded = Vec::new();
        for &(dt, v) in &samples {
            t += dt;
            trace.record(SimTime::from_nanos(t), v);
            recorded.push(v);
        }
        if let Some(v) = trace.value_at(SimTime::from_nanos(probe)) {
            prop_assert!(recorded.iter().any(|&r| (r - v).abs() < 1e-12));
        }
    }
}
