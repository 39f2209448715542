//! Rail-by-rail, load-by-load power accounting.
//!
//! The PicoCube has three supply rails (2.1–3.6 V controller/sensor, 1.0 V
//! radio digital, 0.65 V radio RF) plus the 1.2 V battery bus. Every
//! component model registers one or more *loads* on a rail and publishes its
//! instantaneous current draw whenever it changes state. The ledger treats
//! draws as piecewise-constant between updates and books each constant-draw
//! span (a *draw epoch*) in one multiply when it closes, which yields the
//! per-load energies the paper's Fig. 6 profile and §6 power budget measure
//! on the bench.

use crate::{SimDuration, SimTime};
use picocube_units::json::{field, FromJson, Json, JsonError, ToJson};
use picocube_units::{Amps, Joules, Seconds, Volts, Watts};

/// A [`PowerLedger`] lookup was given a handle the ledger never issued
/// (a `RailId`/`LoadId` from a different ledger, or a corrupted one).
///
/// Handles are only obtainable from [`PowerLedger::add_rail`] and
/// [`PowerLedger::register_load`] and loads are never removed, so within
/// one ledger every issued handle stays valid for the ledger's lifetime;
/// this error is always a wiring bug in the caller, never a model
/// outcome. It is still surfaced as a `Result` (rather than a panic) so
/// a single mis-wired node degrades instead of aborting a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerError {
    /// The `RailId` does not name a rail of this ledger.
    UnknownRail,
    /// The `LoadId` does not name a load of this ledger.
    UnknownLoad,
}

impl core::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownRail => write!(f, "rail handle was not issued by this power ledger"),
            Self::UnknownLoad => write!(f, "load handle was not issued by this power ledger"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// Identifies a supply rail registered with a [`PowerLedger`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RailId(usize);

/// Identifies a load registered on a rail.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LoadId {
    rail: usize,
    load: usize,
}

impl LoadId {
    /// The rail this load draws from.
    pub fn rail(self) -> RailId {
        RailId(self.rail)
    }
}

#[derive(Debug, Clone)]
struct Load {
    name: String,
    current: Amps,
    /// Energy of the load's closed draw epochs.
    energy: Joules,
    /// Start of the open epoch: the load has drawn `current` at its
    /// rail's present voltage since this instant.
    since: SimTime,
}

impl Load {
    /// Energy of the open epoch, from `since` to `now`.
    fn open_energy(&self, voltage: Volts, now: SimTime) -> Joules {
        let dt = now
            .checked_duration_since(self.since)
            .unwrap_or(SimDuration::ZERO);
        voltage * self.current * dt.as_seconds()
    }

    /// Closed plus open energy at `now`.
    fn energy_at(&self, voltage: Volts, now: SimTime) -> Joules {
        self.energy + self.open_energy(voltage, now)
    }

    /// Closes the open epoch at `now`, returning the energy it added.
    fn flush(&mut self, voltage: Volts, now: SimTime) -> Joules {
        let delta = self.open_energy(voltage, now);
        self.energy += delta;
        self.since = now;
        delta
    }
}

#[derive(Debug, Clone)]
struct Rail {
    name: String,
    voltage: Volts,
    loads: Vec<Load>,
}

impl Rail {
    /// Closed plus open energy of every load at `now`, in registration
    /// order.
    fn energy_at(&self, now: SimTime) -> Joules {
        self.loads
            .iter()
            .map(|l| l.energy_at(self.voltage, now))
            .sum()
    }
}

/// Integrating energy meter over a set of named rails and loads.
///
/// Energy is integrated per *draw epoch*: a load's draw `voltage *
/// current` is constant between changes to its current or its rail's
/// voltage, so the ledger books `voltage * current * elapsed` once, when
/// the epoch closes, and adds the open epoch's share whenever an energy
/// is read. Advancing the clock does no arithmetic, which makes every
/// result independent of how time is chopped into advances.
///
/// # Examples
///
/// ```
/// use picocube_sim::{PowerLedger, SimTime};
/// use picocube_units::{Volts, Amps, Watts};
///
/// # fn main() -> Result<(), picocube_sim::LedgerError> {
/// let mut ledger = PowerLedger::new();
/// let vdd = ledger.add_rail("VDD", Volts::new(3.0));
/// let mcu = ledger.register_load(vdd, "MSP430")?;
///
/// ledger.set_load_current(mcu, Amps::from_micro(0.5))?; // deep sleep
/// ledger.advance_to(SimTime::from_secs(6));
/// assert!((ledger.total_energy().micro() - 9.0).abs() < 1e-9); // 3V*0.5µA*6s
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PowerLedger {
    rails: Vec<Rail>,
    now: SimTime,
    /// Grand total of every closed epoch, accumulated as epochs close; the
    /// debug-build sanitizer cross-checks it against the per-load sum.
    flushed_total: Joules,
}

impl PowerLedger {
    /// Creates an empty ledger at time zero.
    pub fn new() -> Self {
        Self {
            rails: Vec::new(),
            now: SimTime::ZERO,
            flushed_total: Joules::ZERO,
        }
    }

    /// Registers a supply rail at the given nominal voltage.
    pub fn add_rail(&mut self, name: impl Into<String>, voltage: Volts) -> RailId {
        self.rails.push(Rail {
            name: name.into(),
            voltage,
            loads: Vec::new(),
        });
        RailId(self.rails.len() - 1)
    }

    /// Looks up a rail by handle.
    fn rail_slot(&self, rail: RailId) -> Result<&Rail, LedgerError> {
        self.rails.get(rail.0).ok_or(LedgerError::UnknownRail)
    }

    /// Looks up a rail by handle, mutably.
    fn rail_slot_mut(&mut self, rail: RailId) -> Result<&mut Rail, LedgerError> {
        self.rails.get_mut(rail.0).ok_or(LedgerError::UnknownRail)
    }

    /// Looks up a load by handle.
    fn load_slot(&self, load: LoadId) -> Result<&Load, LedgerError> {
        self.rails
            .get(load.rail)
            .and_then(|r| r.loads.get(load.load))
            .ok_or(LedgerError::UnknownLoad)
    }

    /// Registers a named load on `rail`, initially drawing zero current.
    ///
    /// Fails if `rail` was not issued by this ledger.
    pub fn register_load(
        &mut self,
        rail: RailId,
        name: impl Into<String>,
    ) -> Result<LoadId, LedgerError> {
        let now = self.now;
        let r = self.rail_slot_mut(rail)?;
        r.loads.push(Load {
            name: name.into(),
            current: Amps::ZERO,
            energy: Joules::ZERO,
            since: now,
        });
        Ok(LoadId {
            rail: rail.0,
            load: r.loads.len() - 1,
        })
    }

    /// Current simulation time of the ledger.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Updates the instantaneous current drawn by `load` from the ledger's
    /// present time on.
    ///
    /// The previous draw is booked as having held until
    /// [`now`](Self::now); call [`advance_to`](Self::advance_to) *before*
    /// changing currents at an event boundary. Setting the current a load
    /// already draws is a no-op.
    pub fn set_load_current(&mut self, load: LoadId, current: Amps) -> Result<(), LedgerError> {
        let now = self.now;
        let rail = self
            .rails
            .get_mut(load.rail)
            .ok_or(LedgerError::UnknownLoad)?;
        let voltage = rail.voltage;
        let slot = rail
            .loads
            .get_mut(load.load)
            .ok_or(LedgerError::UnknownLoad)?;
        if slot.current != current {
            self.flushed_total += slot.flush(voltage, now);
            slot.current = current;
            self.debug_check_balance();
        }
        Ok(())
    }

    /// Reads back the instantaneous current drawn by `load`.
    pub fn load_current(&self, load: LoadId) -> Result<Amps, LedgerError> {
        Ok(self.load_slot(load)?.current)
    }

    /// Updates the rail voltage (e.g. battery sag). Takes effect for energy
    /// integrated after [`now`](Self::now); setting the present voltage is
    /// a no-op.
    pub fn set_rail_voltage(&mut self, rail: RailId, voltage: Volts) -> Result<(), LedgerError> {
        let now = self.now;
        let r = self.rails.get_mut(rail.0).ok_or(LedgerError::UnknownRail)?;
        if r.voltage != voltage {
            for load in &mut r.loads {
                self.flushed_total += load.flush(r.voltage, now);
            }
            r.voltage = voltage;
            self.debug_check_balance();
        }
        Ok(())
    }

    /// The present voltage of `rail`.
    pub fn rail_voltage(&self, rail: RailId) -> Result<Volts, LedgerError> {
        Ok(self.rail_slot(rail)?.voltage)
    }

    /// Instantaneous power drawn from `rail` (sum over its loads).
    pub fn rail_power(&self, rail: RailId) -> Result<Watts, LedgerError> {
        let r = self.rail_slot(rail)?;
        let total: Amps = r.loads.iter().map(|l| l.current).sum();
        Ok(r.voltage * total)
    }

    /// Instantaneous total power across all rails.
    pub fn total_power(&self) -> Watts {
        // Same per-rail visit and accumulation order as summing
        // `rail_power` over every issued handle.
        self.rails
            .iter()
            .map(|r| {
                let total: Amps = r.loads.iter().map(|l| l.current).sum();
                r.voltage * total
            })
            .sum()
    }

    /// Moves the ledger's clock to `t`. Every load keeps its present draw
    /// over the span; nothing is integrated until an epoch closes or an
    /// energy is read.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the ledger's current time.
    pub fn advance_to(&mut self, t: SimTime) {
        // `duration_since` enforces the no-time-travel contract.
        let _ = t.duration_since(self.now);
        self.now = t;
    }

    /// Moves the clock over a run of per-instruction cycle costs (1 µs per
    /// cycle): the same as one [`advance_to`](Self::advance_to) to the end
    /// of the run.
    pub fn advance_deltas(&mut self, deltas: &[u32]) {
        let micros: u64 = deltas.iter().map(|&d| u64::from(d)).sum();
        self.advance_by(SimDuration::from_micros(micros));
    }

    /// Debug-build sanitizer: the closed-epoch energies must sum to the
    /// independently accumulated grand total. A mismatch means some path
    /// mutated a load's energy without closing its epoch — a bookkeeping
    /// bug in the ledger, never a legitimate model outcome. Compiled out in
    /// release builds.
    fn debug_check_balance(&self) {
        if cfg!(debug_assertions) {
            let per_load: f64 = self
                .rails
                .iter()
                .flat_map(|r| r.loads.iter())
                .map(|l| l.energy.value())
                .sum();
            let total = self.flushed_total.value();
            // Summation order differs between the two accumulators, so allow
            // a relative float tolerance.
            let tolerance = 1e-9 * per_load.abs().max(total.abs()).max(1e-12);
            debug_assert!(
                (per_load - total).abs() <= tolerance,
                "power ledger unbalanced: per-load sum {per_load} J != flushed total {total} J"
            );
        }
    }

    /// Test-only fault injection: bumps one load's integral without touching
    /// the grand total, unbalancing the ledger for sanitizer regression
    /// tests.
    #[cfg(test)]
    fn unbalance_load_energy(&mut self, load: LoadId, delta: Joules) {
        if let Some(l) = self
            .rails
            .get_mut(load.rail)
            .and_then(|r| r.loads.get_mut(load.load))
        {
            l.energy += delta;
        }
    }

    /// Moves the clock forward by `dt`.
    pub fn advance_by(&mut self, dt: SimDuration) {
        self.advance_to(self.now + dt);
    }

    /// Total energy consumed from `rail` so far.
    pub fn rail_energy(&self, rail: RailId) -> Result<Joules, LedgerError> {
        Ok(self.rail_slot(rail)?.energy_at(self.now))
    }

    /// Energy consumed by one load so far.
    pub fn load_energy(&self, load: LoadId) -> Result<Joules, LedgerError> {
        let rail = self.rails.get(load.rail).ok_or(LedgerError::UnknownLoad)?;
        let slot = rail.loads.get(load.load).ok_or(LedgerError::UnknownLoad)?;
        Ok(slot.energy_at(rail.voltage, self.now))
    }

    /// Total energy consumed across all rails so far.
    pub fn total_energy(&self) -> Joules {
        // Same per-rail visit and accumulation order as summing
        // `rail_energy` over every issued handle.
        self.rails.iter().map(|r| r.energy_at(self.now)).sum()
    }

    /// Average power since simulation start (total energy / elapsed time).
    /// Returns zero before any time has elapsed.
    pub fn average_power(&self) -> Watts {
        let t = self.now.as_seconds();
        if t.value() <= 0.0 {
            Watts::ZERO
        } else {
            self.total_energy() / t
        }
    }

    /// Exports the ledger's accumulated energy accounting into a metric
    /// registry: one accumulating gauge per rail
    /// (`power.rail.<rail>.uj`), one per load
    /// (`power.load.<rail>.<load>.uj`) and the grand total
    /// (`power.total.uj`), all in microjoules. Gauges merge by addition,
    /// so fleet-merged registries carry per-rail totals across nodes.
    pub fn export_metrics(&self, metrics: &mut picocube_telemetry::Metrics) {
        use picocube_telemetry::keys;
        for rail in &self.rails {
            let loads = || {
                rail.loads
                    .iter()
                    .map(|l| l.energy_at(rail.voltage, self.now))
            };
            metrics.add(
                &keys::power_rail_uj(&rail.name),
                loads().map(Joules::micro).sum(),
            );
            for (load, energy) in rail.loads.iter().zip(loads()) {
                metrics.add(&keys::power_load_uj(&rail.name, &load.name), energy.micro());
            }
        }
        metrics.add(keys::POWER_TOTAL_UJ, self.total_energy().micro());
    }

    /// Produces a structured per-rail, per-load energy report.
    pub fn report(&self) -> PowerReport {
        PowerReport {
            elapsed: self.now.as_seconds(),
            total_energy: self.total_energy(),
            average_power: self.average_power(),
            rails: self
                .rails
                .iter()
                .map(|r| RailReport {
                    name: r.name.clone(),
                    voltage: r.voltage,
                    energy: r.energy_at(self.now),
                    loads: r
                        .loads
                        .iter()
                        .map(|l| (l.name.clone(), l.energy_at(r.voltage, self.now)))
                        .collect(),
                })
                .collect(),
        }
    }
}

impl Default for PowerLedger {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-rail slice of a [`PowerReport`].
#[derive(Debug, Clone)]
pub struct RailReport {
    /// Rail name as registered.
    pub name: String,
    /// Rail voltage at report time.
    pub voltage: Volts,
    /// Total energy drawn from this rail.
    pub energy: Joules,
    /// `(load name, energy)` pairs in registration order.
    pub loads: Vec<(String, Joules)>,
}

/// Snapshot of a [`PowerLedger`]'s accumulated energy accounting.
#[derive(Debug, Clone)]
pub struct PowerReport {
    /// Simulated time covered by the report.
    pub elapsed: Seconds,
    /// Total energy drawn across all rails.
    pub total_energy: Joules,
    /// `total_energy / elapsed`.
    pub average_power: Watts,
    /// Per-rail breakdowns.
    pub rails: Vec<RailReport>,
}

impl core::fmt::Display for PowerReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "power report: {:.3} over {:.3} (avg {:.3})",
            self.total_energy, self.elapsed, self.average_power
        )?;
        for rail in &self.rails {
            writeln!(
                f,
                "  rail {:<18} {:>7.3}: {:.6}",
                rail.name, rail.voltage, rail.energy
            )?;
            for (name, energy) in &rail.loads {
                writeln!(f, "    {:<20} {:.9}", name, energy)?;
            }
        }
        Ok(())
    }
}

impl ToJson for RailReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("voltage".into(), self.voltage.to_json()),
            ("energy".into(), self.energy.to_json()),
            ("loads".into(), self.loads.to_json()),
        ])
    }
}

impl FromJson for RailReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            name: FromJson::from_json(field(value, "name")?)?,
            voltage: FromJson::from_json(field(value, "voltage")?)?,
            energy: FromJson::from_json(field(value, "energy")?)?,
            loads: FromJson::from_json(field(value, "loads")?)?,
        })
    }
}

impl ToJson for PowerReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("elapsed".into(), self.elapsed.to_json()),
            ("total_energy".into(), self.total_energy.to_json()),
            ("average_power".into(), self.average_power.to_json()),
            ("rails".into(), self.rails.to_json()),
        ])
    }
}

impl FromJson for PowerReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            elapsed: FromJson::from_json(field(value, "elapsed")?)?,
            total_energy: FromJson::from_json(field(value, "total_energy")?)?,
            average_power: FromJson::from_json(field(value, "average_power")?)?,
            rails: FromJson::from_json(field(value, "rails")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_piecewise_constant_current() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VBAT", Volts::new(1.2));
        let load = ledger.register_load(rail, "radio").unwrap();

        ledger
            .set_load_current(load, Amps::from_milli(1.0))
            .unwrap();
        ledger.advance_to(SimTime::from_millis(10));
        ledger.set_load_current(load, Amps::ZERO).unwrap();
        ledger.advance_to(SimTime::from_secs(10));

        // 1.2 V * 1 mA * 10 ms = 12 µJ
        assert!((ledger.total_energy().micro() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn per_load_breakdown() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VDD", Volts::new(2.0));
        let a = ledger.register_load(rail, "a").unwrap();
        let b = ledger.register_load(rail, "b").unwrap();
        ledger.set_load_current(a, Amps::from_micro(1.0)).unwrap();
        ledger.set_load_current(b, Amps::from_micro(3.0)).unwrap();
        ledger.advance_to(SimTime::from_secs(1));
        assert!((ledger.load_energy(a).unwrap().micro() - 2.0).abs() < 1e-9);
        assert!((ledger.load_energy(b).unwrap().micro() - 6.0).abs() < 1e-9);
        assert!((ledger.rail_energy(rail).unwrap().micro() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn rail_voltage_change_applies_forward() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VBAT", Volts::new(1.2));
        let load = ledger.register_load(rail, "mcu").unwrap();
        ledger.set_load_current(load, Amps::new(1.0)).unwrap();
        ledger.advance_to(SimTime::from_secs(1)); // 1.2 J
        ledger.set_rail_voltage(rail, Volts::new(1.0)).unwrap();
        ledger.advance_to(SimTime::from_secs(2)); // +1.0 J
        assert!((ledger.total_energy().value() - 2.2).abs() < 1e-9);
    }

    #[test]
    fn average_power_matches_energy_over_time() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VDD", Volts::new(3.0));
        let load = ledger.register_load(rail, "x").unwrap();
        ledger
            .set_load_current(load, Amps::from_micro(2.0))
            .unwrap();
        ledger.advance_to(SimTime::from_secs(100));
        assert!((ledger.average_power().micro() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn average_power_is_zero_at_t0() {
        let ledger = PowerLedger::new();
        assert_eq!(ledger.average_power(), Watts::ZERO);
    }

    #[test]
    fn instantaneous_power_sums_rails() {
        let mut ledger = PowerLedger::new();
        let r1 = ledger.add_rail("a", Volts::new(1.0));
        let r2 = ledger.add_rail("b", Volts::new(2.0));
        let l1 = ledger.register_load(r1, "x").unwrap();
        let l2 = ledger.register_load(r2, "y").unwrap();
        ledger.set_load_current(l1, Amps::new(1.0)).unwrap();
        ledger.set_load_current(l2, Amps::new(1.0)).unwrap();
        assert!((ledger.total_power().value() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn advancing_backwards_panics() {
        let mut ledger = PowerLedger::new();
        ledger.advance_to(SimTime::from_secs(2));
        ledger.advance_to(SimTime::from_secs(1));
    }

    #[test]
    fn export_metrics_breaks_energy_out_per_rail_and_load() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VBAT", Volts::new(1.0));
        let a = ledger.register_load(rail, "mcu").unwrap();
        let b = ledger.register_load(rail, "radio").unwrap();
        ledger.set_load_current(a, Amps::from_micro(1.0)).unwrap();
        ledger.set_load_current(b, Amps::from_micro(3.0)).unwrap();
        ledger.advance_to(SimTime::from_secs(2));

        let mut metrics = picocube_telemetry::Metrics::new();
        ledger.export_metrics(&mut metrics);
        assert!((metrics.gauge("power.load.VBAT.mcu.uj") - 2.0).abs() < 1e-9);
        assert!((metrics.gauge("power.load.VBAT.radio.uj") - 6.0).abs() < 1e-9);
        assert!((metrics.gauge("power.rail.VBAT.uj") - 8.0).abs() < 1e-9);
        assert!((metrics.gauge("power.total.uj") - 8.0).abs() < 1e-9);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "sanitizer compiles away in release")]
    #[should_panic(expected = "power ledger unbalanced")]
    fn unbalanced_ledger_trips_the_sanitizer() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VBAT", Volts::new(1.2));
        let load = ledger.register_load(rail, "radio").unwrap();
        ledger
            .set_load_current(load, Amps::from_milli(1.0))
            .unwrap();
        ledger.advance_to(SimTime::from_secs(1));
        ledger.set_load_current(load, Amps::ZERO).unwrap();
        // Corrupt one closed integral behind the ledger's back; the next
        // epoch flush must catch the imbalance.
        ledger.unbalance_load_energy(load, Joules::new(1.0));
        ledger.advance_to(SimTime::from_secs(2));
        ledger
            .set_load_current(load, Amps::from_milli(2.0))
            .unwrap();
    }

    #[test]
    fn sanitizer_accepts_a_balanced_ledger() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VDD", Volts::new(3.0));
        let a = ledger.register_load(rail, "mcu").unwrap();
        let b = ledger.register_load(rail, "sensor").unwrap();
        for step in 1..=1_000u64 {
            ledger
                .set_load_current(a, Amps::from_micro(step as f64))
                .unwrap();
            ledger
                .set_load_current(b, Amps::from_micro(1_000.0 - step as f64))
                .unwrap();
            ledger.advance_to(SimTime::from_millis(step));
        }
        // Every set above closed an epoch and checked the flushed total
        // against the per-load sum. 1 mA aggregate at 3 V for 1 s = 3 mJ.
        assert!((ledger.total_energy().value() - 3e-3).abs() < 1e-9);
    }

    #[test]
    fn foreign_handles_are_rejected_not_panicked() {
        // Handles minted by one ledger must be refused (not panic) when
        // presented to another, emptier ledger.
        let mut big = PowerLedger::new();
        let r0 = big.add_rail("a", Volts::new(1.0));
        let r1 = big.add_rail("b", Volts::new(1.0));
        let l0 = big.register_load(r0, "w").unwrap();
        let l1 = big.register_load(r1, "x").unwrap();

        let mut small = PowerLedger::new();
        small.add_rail("only", Volts::new(1.0));
        assert_eq!(
            small.register_load(r1, "y").unwrap_err(),
            LedgerError::UnknownRail
        );
        assert_eq!(
            small.rail_voltage(r1).unwrap_err(),
            LedgerError::UnknownRail
        );
        assert_eq!(small.rail_power(r1).unwrap_err(), LedgerError::UnknownRail);
        assert_eq!(small.rail_energy(r1).unwrap_err(), LedgerError::UnknownRail);
        assert_eq!(
            small.set_rail_voltage(r1, Volts::new(2.0)).unwrap_err(),
            LedgerError::UnknownRail
        );
        assert_eq!(
            small.load_current(l1).unwrap_err(),
            LedgerError::UnknownLoad
        );
        assert_eq!(small.load_energy(l1).unwrap_err(), LedgerError::UnknownLoad);
        assert_eq!(
            small.set_load_current(l1, Amps::ZERO).unwrap_err(),
            LedgerError::UnknownLoad
        );
        // A valid rail with an out-of-range load slot is an unknown load.
        assert!(small.rail_voltage(r0).is_ok());
        assert_eq!(
            small.load_current(l0).unwrap_err(),
            LedgerError::UnknownLoad
        );
    }

    #[test]
    fn report_contains_all_loads() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VDD", Volts::new(3.0));
        ledger.register_load(rail, "mcu").unwrap();
        ledger.register_load(rail, "sensor").unwrap();
        let report = ledger.report();
        assert_eq!(report.rails.len(), 1);
        assert_eq!(report.rails[0].loads.len(), 2);
        assert_eq!(report.rails[0].loads[0].0, "mcu");
        let shown = format!("{report}");
        assert!(shown.contains("mcu") && shown.contains("sensor"));
    }
}
