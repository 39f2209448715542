//! Differential suite: the pre-decoded translation cache vs decoding
//! every instruction from live memory, in lockstep, both checked against a
//! frozen reference trace.
//!
//! Two cores load the same image; one runs through the micro-op cache, the
//! other with translation disabled, so it decodes each instruction from
//! memory as it stands. After every step the full architectural state must
//! agree: all sixteen registers, the cycle counter, the step result
//! (including fault latching and sleep reporting), and — at checkpoints and
//! at the end — every byte of the address space. Stimuli (interrupts, pin
//! edges, SPI slaves, sleep fast-forwards) are mirrored.
//!
//! The live-decode core also folds every step into a running FNV-1a digest
//! that is compared against `tests/golden/interp_trace.txt`. That file was
//! recorded from the original fetch-decode-execute interpreter before it
//! was retired, so it keeps the reference semantics as data. Regenerate it
//! only from a known-good commit with
//! `UPDATE_GOLDEN=1 cargo test --release -p picocube-mcu --test differential`.
//!
//! Coverage comes from three directions: every checked-in firmware image,
//! proptest-generated instruction soups over all addressing modes (via the
//! in-tree assembler), and directed edge cases (self-modifying code, odd
//! PCs, undecodable words, interrupt storms).

use picocube_mcu::firmware;
use picocube_mcu::{asm, Image, InsnCount, Irq, Mcu, OperatingMode, SegmentStop, StepResult};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Steps between two digest checkpoints.
const CHECKPOINT_EVERY: usize = 64;

fn trace_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/interp_trace.txt")
}

/// The trace file as `key -> [(label, digest)]`, one record per line:
/// `<key> <label> <digest hex>`.
type TraceRecords = BTreeMap<String, Vec<(String, String)>>;

fn parse_trace(text: &str) -> TraceRecords {
    let mut out = TraceRecords::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let mut parts = line.split(' ');
        let (Some(key), Some(label), Some(digest), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            panic!("malformed trace line: {line:?}");
        };
        out.entry(key.to_string())
            .or_default()
            .push((label.to_string(), digest.to_string()));
    }
    out
}

/// The checked-in trace, read once per test binary.
fn golden_trace() -> &'static TraceRecords {
    static GOLDEN: OnceLock<TraceRecords> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let text = std::fs::read_to_string(trace_path()).unwrap_or_else(|e| {
            panic!(
                "missing reference trace {}: {e}\n(regenerate from a known-good commit \
                 with UPDATE_GOLDEN=1 cargo test --release -p picocube-mcu --test differential)",
                trace_path().display()
            )
        });
        parse_trace(&text)
    })
}

/// Serializes `UPDATE_GOLDEN` rewrites across the suite's parallel tests.
static TRACE_WRITE: Mutex<()> = Mutex::new(());

fn mode_code(mode: OperatingMode) -> u64 {
    match mode {
        OperatingMode::Active => 0,
        OperatingMode::Lpm0 => 1,
        OperatingMode::Lpm3 => 2,
        OperatingMode::Lpm4 => 3,
    }
}

fn step_code(r: StepResult) -> [u64; 3] {
    match r {
        StepResult::Ran { cycles } => [0, u64::from(cycles), 0],
        StepResult::Sleeping(mode) => [1, mode_code(mode), 0],
        StepResult::IllegalInstruction { word, at } => [2, u64::from(word), u64::from(at)],
    }
}

fn stop_code(s: SegmentStop) -> [u64; 3] {
    match s {
        SegmentStop::Budget => [3, 0, 0],
        SegmentStop::Observable => [4, 0, 0],
        SegmentStop::Sleeping(mode) => [5, mode_code(mode), 0],
        SegmentStop::Fault { word, at } => [6, u64::from(word), u64::from(at)],
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the little-endian bytes of each word, continuing from `h`.
fn fnv(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// A running FNV-1a digest of one core's execution, checkpointed every
/// [`CHECKPOINT_EVERY`] steps and at every full-memory comparison. Checked
/// against the reference trace record by record as it goes, or collected
/// and written back under `UPDATE_GOLDEN`.
struct Trace {
    key: String,
    digest: u64,
    steps: usize,
    records: Vec<(String, String)>,
    update: bool,
}

impl Trace {
    fn new(key: &str) -> Self {
        Self {
            key: key.to_string(),
            digest: FNV_BASIS,
            steps: 0,
            records: Vec::new(),
            update: std::env::var_os("UPDATE_GOLDEN").is_some(),
        }
    }

    /// Folds an event plus the core's registers, cycles and mode.
    fn fold(&mut self, event: &[u64], m: &Mcu) {
        let registers = (0..16).map(|r| u64::from(m.register(r)));
        let state = [m.cycles(), mode_code(m.mode())];
        self.digest = fnv(
            self.digest,
            event.iter().copied().chain(registers).chain(state),
        );
    }

    /// Folds one step or segment and checkpoints every
    /// [`CHECKPOINT_EVERY`] of them.
    fn step(&mut self, event: &[u64], m: &Mcu) {
        self.fold(event, m);
        self.steps += 1;
        if self.steps.is_multiple_of(CHECKPOINT_EVERY) {
            let label = format!("step{}", self.steps);
            self.record(label, self.digest);
        }
    }

    /// Records a digest of all 64 KiB as the core sees them.
    fn memory(&mut self, m: &Mcu, context: &str) {
        let digest = fnv(
            FNV_BASIS,
            (0..=0xFFFFu16).map(|a| u64::from(m.read_mem8(a))),
        );
        let label = format!("mem:{}@{}", context.replace(' ', "_"), self.steps);
        self.record(label, digest);
    }

    fn record(&mut self, label: String, digest: u64) {
        let digest = format!("{digest:016x}");
        if !self.update {
            let at = self.records.len();
            let expected = golden_trace().get(&self.key).and_then(|r| r.get(at));
            assert_eq!(
                expected,
                Some(&(label.clone(), digest.clone())),
                "{}: record {at} diverged from the reference trace",
                self.key
            );
        }
        self.records.push((label, digest));
    }

    /// Closes the trace with the final digest: checks that every reference
    /// record was reached, or merges this key into the trace file.
    fn finish(mut self) {
        let label = format!("end@{}", self.steps);
        self.record(label, self.digest);
        if !self.update {
            let expected = golden_trace().get(&self.key).map_or(0, Vec::len);
            assert_eq!(
                self.records.len(),
                expected,
                "{}: the run ended early against the reference trace",
                self.key
            );
            return;
        }
        let _guard = TRACE_WRITE.lock().unwrap_or_else(PoisonError::into_inner);
        let path = trace_path();
        let mut all = std::fs::read_to_string(&path)
            .map(|t| parse_trace(&t))
            .unwrap_or_default();
        all.insert(self.key.clone(), std::mem::take(&mut self.records));
        let mut text = String::new();
        for (key, records) in &all {
            for (label, digest) in records {
                text.push_str(&format!("{key} {label} {digest}\n"));
            }
        }
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        std::fs::write(&path, text).expect("write reference trace");
    }
}

/// A cached/live-decode pair over one image. The live-decode core's trace
/// is checked against the reference.
struct Pair {
    dec: Mcu,
    live: Mcu,
    trace: Trace,
}

impl Pair {
    fn boot(key: &str, image: &Image) -> Self {
        let mut dec = Mcu::new();
        dec.load(image);
        dec.reset();
        let mut live = Mcu::new();
        live.load(image);
        live.reset();
        live.set_translation(false);
        Self {
            dec,
            live,
            trace: Trace::new(key),
        }
    }

    fn attach_echo_spi(&mut self) {
        self.dec.attach_spi(Box::new(|mosi: u8| mosi ^ 0xA5));
        self.live.attach_spi(Box::new(|mosi: u8| mosi ^ 0xA5));
    }

    /// Applies one mirrored stimulus to both cores.
    fn both(&mut self, f: impl Fn(&mut Mcu)) {
        f(&mut self.dec);
        f(&mut self.live);
    }

    fn assert_registers(&self, step: usize) {
        for r in 0..16 {
            assert_eq!(
                self.dec.register(r),
                self.live.register(r),
                "step {step}: r{r} diverged"
            );
        }
        assert_eq!(
            self.dec.cycles(),
            self.live.cycles(),
            "step {step}: cycle counters diverged"
        );
        assert_eq!(
            self.dec.mode(),
            self.live.mode(),
            "step {step}: operating mode diverged"
        );
    }

    fn assert_memory(&mut self, context: &str) {
        for addr in 0..=0xFFFFu16 {
            let (a, b) = (self.dec.read_mem8(addr), self.live.read_mem8(addr));
            assert_eq!(a, b, "{context}: memory diverged at {addr:#06x}");
        }
        self.trace.memory(&self.live, context);
    }

    /// Steps both cores once and checks full lockstep agreement.
    fn step(&mut self, step: usize) -> StepResult {
        let a = self.dec.step();
        let b = self.live.step();
        assert_eq!(a, b, "step {step}: step results diverged");
        self.assert_registers(step);
        self.trace.step(&step_code(b), &self.live);
        a
    }

    /// Fast-forwards a sleeping pair identically.
    fn sleep(&mut self, cycles: u64, step: usize) {
        let a = self.dec.sleep(cycles);
        let b = self.live.sleep(cycles);
        assert_eq!(a, b, "step {step}: slept cycle counts diverged");
        self.assert_registers(step);
        self.trace.fold(&[7, b], &self.live);
    }

    /// Closes the reference trace.
    fn finish(self) {
        self.trace.finish();
    }
}

/// Drives a pair for `steps` steps with periodic pin pulses so firmware
/// that parks in an LPM keeps waking up and exercising its burst path.
fn drive_firmware(pair: &mut Pair, steps: usize) {
    let mut faulted = false;
    for i in 0..steps {
        match pair.step(i) {
            StepResult::Ran { .. } => {}
            StepResult::Sleeping(_) => {
                pair.sleep(997, i);
                if i % 5 == 0 {
                    // The board's latched wake line: a P1.0 pulse.
                    pair.both(|m| {
                        m.drive_p1(0, false);
                        m.drive_p1(0, true);
                    });
                }
                if i % 11 == 0 {
                    pair.both(|m| {
                        m.drive_p2(1, false);
                        m.drive_p2(1, true);
                    });
                }
            }
            StepResult::IllegalInstruction { .. } => {
                faulted = true;
                break;
            }
        }
        if i % 64 == 0 {
            pair.both(|m| {
                m.drive_p1(0, false);
            });
        }
    }
    assert!(!faulted, "stock firmware must not fault");
    pair.assert_memory("after drive");
}

#[test]
fn stock_firmware_images_run_in_lockstep() {
    let images: Vec<(&str, Image)> = vec![
        ("tpms", firmware::tpms_app(0x42).expect("tpms builds")),
        (
            "tpms_alarm",
            firmware::tpms_alarm_app(0x17, 0x0123).expect("alarm builds"),
        ),
        ("motion", firmware::motion_app(7).expect("motion builds")),
        ("beacon", firmware::beacon_app(3, 2).expect("beacon builds")),
    ];
    for (name, image) in &images {
        let mut pair = Pair::boot(
            &format!("stock_firmware_images_run_in_lockstep/{name}"),
            image,
        );
        pair.attach_echo_spi();
        drive_firmware(&mut pair, 20_000);
        assert!(
            pair.dec.cycles() > 10_000,
            "{name}: the pair should have made real progress"
        );
        pair.finish();
    }
}

#[test]
fn self_modifying_code_falls_back_identically() {
    // The program overwrites an instruction it then executes: the cached
    // core must notice the write into cached flash and decode from live
    // memory from then on, landing on the same result.
    let image = asm::assemble(
        r#"
        .org 0xF000
start:  mov #0x0A00, r1
        mov #0x1111, r4
        mov #0x2222, r5
        mov #0x4506, &patch   ; overwrite "mov r4, r6" with "mov r5, r6"
patch:  mov r4, r6
halt:   jmp halt
        .vector reset, start
        "#,
    )
    .expect("smc program assembles");
    let mut pair = Pair::boot("self_modifying_code_falls_back_identically", &image);
    for i in 0..8 {
        pair.step(i);
    }
    assert_eq!(
        pair.dec.register(6),
        0x2222,
        "the patched instruction must execute, not the stale decode"
    );
    pair.assert_memory("after smc");
    pair.finish();
}

#[test]
fn undecodable_words_fault_in_lockstep() {
    let image = asm::assemble(
        r#"
        .org 0xF000
start:  mov #0x0A00, r1
        mov #3, r4
        .word 0x0000          ; opcode 0: undecodable
        .vector reset, start
        "#,
    )
    .expect("fault program assembles");
    let mut pair = Pair::boot("undecodable_words_fault_in_lockstep", &image);
    pair.step(0);
    pair.step(1);
    let r = pair.step(2);
    assert!(
        matches!(r, StepResult::IllegalInstruction { word: 0, .. }),
        "both cores must latch the fault"
    );
    // The fault sticks on both.
    let r = pair.step(3);
    assert!(matches!(r, StepResult::IllegalInstruction { .. }));
    pair.assert_memory("after fault");
    pair.finish();
}

#[test]
fn fault_latch_holds_through_interrupts() {
    // A nonzero undecodable word: the first fault reports it, every later
    // step reports the latched fault (word 0) at the same PC, and a pending
    // interrupt is not dispatched while the latch holds.
    let image = asm::assemble(
        r#"
        .org 0xF000
start:  mov #0x0A00, r1
        eint
        .word 0x0ABC          ; opcode 0: undecodable
isr:    add #1, r4
        reti
        .vector reset, start
        .vector port1, isr
        "#,
    )
    .expect("fault program assembles");
    let mut pair = Pair::boot("fault_latch_holds_through_interrupts", &image);
    pair.step(0);
    pair.step(1);
    let r = pair.step(2);
    assert_eq!(
        r,
        StepResult::IllegalInstruction {
            word: 0x0ABC,
            at: 0xF006
        }
    );
    pair.both(|m| m.raise(Irq::Port1));
    for i in 3..6 {
        let r = pair.step(i);
        assert_eq!(
            r,
            StepResult::IllegalInstruction {
                word: 0,
                at: 0xF006
            },
            "step {i}: the fault must stay latched"
        );
    }
    assert_eq!(pair.live.register(4), 0, "no ISR runs on a latched fault");
    pair.assert_memory("after latched fault");
    pair.finish();
}

#[test]
fn odd_pc_executes_identically() {
    let image = asm::assemble(
        r#"
        .org 0xF000
start:  mov #0x0A00, r1
        mov #0x1234, r4
halt:   jmp halt
        .vector reset, start
        "#,
    )
    .expect("odd-pc program assembles");
    let mut pair = Pair::boot("odd_pc_executes_identically", &image);
    pair.step(0);
    // Force an odd PC: the hardware masks the low bit on fetch but keeps
    // the odd increment; both paths must model it the same way.
    pair.both(|m| m.set_register(0, 0xF005));
    for i in 1..6 {
        pair.step(i);
    }
    pair.assert_memory("after odd pc");
    pair.finish();
}

#[test]
fn interrupt_storm_dispatches_identically() {
    let image = asm::assemble(
        r#"
        .org 0xF000
start:  mov #0x0A00, r1
        eint
loop:   add #1, r4
        jmp loop
tisr:   add #0x10, r5
        reti
sisr:   add #0x10, r6
        reti
p1isr:  add #0x10, r7
        reti
p2isr:  add #0x10, r8
        reti
        .vector reset, start
        .vector timera, tisr
        .vector spi, sisr
        .vector port1, p1isr
        .vector port2, p2isr
        "#,
    )
    .expect("storm program assembles");
    let mut pair = Pair::boot("interrupt_storm_dispatches_identically", &image);
    let schedule = [
        (3usize, Irq::Port2),
        (4, Irq::TimerA),
        (4, Irq::Spi),
        (9, Irq::Port1),
        (9, Irq::Port2),
        (9, Irq::TimerA),
        (23, Irq::Spi),
        (24, Irq::Spi),
    ];
    for i in 0..600 {
        for (at, irq) in &schedule {
            if *at == i % 40 {
                pair.both(|m| m.raise(*irq));
            }
        }
        pair.step(i);
    }
    pair.assert_memory("after storm");
    pair.finish();
}

/// Reference implementation of the [`Mcu::run_segment`] contract written
/// purely against the public single-step API: step until the budget is
/// exhausted, an observable (GPIO outputs, SPI activity, operating mode)
/// changes, or the core reports sleep/fault. `run_segment` documents
/// itself as exactly this loop — here the claim is checked.
fn reference_segment(
    m: &mut Mcu,
    limit_cycles: u64,
    max_insns: usize,
    deltas: &mut Vec<u32>,
) -> SegmentStop {
    let obs = |m: &Mcu| (m.p1_output(), m.p2_output(), m.spi_busy(), m.mode());
    let base = obs(m);
    loop {
        if m.cycles() >= limit_cycles || deltas.len() >= max_insns {
            return SegmentStop::Budget;
        }
        match m.step() {
            StepResult::Ran { cycles } => {
                deltas.push(cycles);
                if obs(m) != base {
                    return SegmentStop::Observable;
                }
            }
            StepResult::Sleeping(mode) => return SegmentStop::Sleeping(mode),
            StepResult::IllegalInstruction { word, at } => return SegmentStop::Fault { word, at },
        }
    }
}

#[test]
fn run_segment_matches_single_stepping() {
    // The cached core runs whole segments (block streaming plus the fused
    // SPI spin); the live-decode core single-steps through the reference
    // loop above. Ragged cycle/instruction budgets force segment splits at
    // awkward points — including mid-spin — and every stop reason, delta
    // list, register file, and memory image must agree.
    let images: Vec<(&str, Image)> = vec![
        ("tpms", firmware::tpms_app(0x42).expect("tpms builds")),
        ("beacon", firmware::beacon_app(3, 2).expect("beacon builds")),
        ("motion", firmware::motion_app(7).expect("motion builds")),
    ];
    for (name, image) in &images {
        let mut pair = Pair::boot(
            &format!("run_segment_matches_single_stepping/{name}"),
            image,
        );
        pair.attach_echo_spi();
        let (mut da, mut db) = (Vec::new(), Vec::new());
        for seg in 0..4_000usize {
            let limit = pair.dec.cycles() + 23 + (seg % 977) as u64;
            let max_insns = 1 + seg % 63;
            da.clear();
            db.clear();
            let a = pair.dec.run_segment(limit, max_insns, &mut da);
            let b = reference_segment(&mut pair.live, limit, max_insns, &mut db);
            assert_eq!(a, b, "{name} segment {seg}: stop reasons diverged");
            assert_eq!(da, db, "{name} segment {seg}: cycle deltas diverged");
            pair.assert_registers(seg);
            let mut event = stop_code(b).to_vec();
            event.push(db.len() as u64);
            event.extend(db.iter().map(|c| u64::from(*c)));
            pair.trace.step(&event, &pair.live);
            if let SegmentStop::Sleeping(_) = a {
                pair.sleep(997, seg);
                if seg % 5 == 0 {
                    pair.both(|m| {
                        m.drive_p1(0, false);
                        m.drive_p1(0, true);
                    });
                }
                if seg % 11 == 0 {
                    pair.both(|m| {
                        m.drive_p2(1, false);
                        m.drive_p2(1, true);
                    });
                }
            }
            if seg % 64 == 0 {
                pair.both(|m| m.drive_p1(0, false));
            }
        }
        pair.assert_memory("after segments");
        pair.finish();
    }
}

/// A transmit loop whose SPI transfers take 1,024 cycles, so each
/// busy-wait spins about 170 times: far past the two boundary iterations,
/// which forces the fused spin's bulk fast-forward.
const SLOW_SPI_LOOP: &str = r#"
        .org 0xF000
start:  mov #0x0A00, sp
        mov.b #7, &0x0043
loop:   mov.b #0x5A, &0x0040
wait:   bit.b #1, &0x0042
        jnz wait
        inc r6
        jmp loop
        .vector reset, start
"#;

#[test]
fn counting_log_matches_vec_log() {
    // Two decoded cores run the same segments, one logging every cycle
    // cost into a `Vec`, the other only counting. The log must not change
    // what executes: stop reasons, cycles and registers agree, and the
    // count equals the `Vec`'s length, bulk-ticked spins included.
    let images: Vec<(&str, Image)> = vec![
        ("tpms", firmware::tpms_app(0x42).expect("tpms builds")),
        ("beacon", firmware::beacon_app(3, 2).expect("beacon builds")),
        ("motion", firmware::motion_app(7).expect("motion builds")),
        (
            "slow spi",
            asm::assemble(SLOW_SPI_LOOP).expect("spin loop assembles"),
        ),
    ];
    for (name, image) in &images {
        let boot = || {
            let mut m = Mcu::new();
            m.load(image);
            m.reset();
            m.attach_spi(Box::new(|mosi: u8| mosi ^ 0xA5));
            m
        };
        let (mut vec_core, mut count_core) = (boot(), boot());
        let mut deltas = Vec::new();
        let mut longest_spin = 0usize;
        for seg in 0..4_000usize {
            let limit = vec_core.cycles() + 23 + (seg % 977) as u64 * 7;
            let max_insns = 1 + seg % 400;
            deltas.clear();
            let mut count = InsnCount::default();
            let a = vec_core.run_segment(limit, max_insns, &mut deltas);
            let b = count_core.run_segment(limit, max_insns, &mut count);
            assert_eq!(a, b, "{name} segment {seg}: stop reasons diverged");
            assert_eq!(
                count.0,
                deltas.len(),
                "{name} segment {seg}: counts diverged"
            );
            assert_eq!(
                vec_core.cycles(),
                count_core.cycles(),
                "{name} segment {seg}"
            );
            for r in 0..16 {
                assert_eq!(
                    vec_core.register(r),
                    count_core.register(r),
                    "{name} segment {seg}: r{r} diverged"
                );
            }
            let spin = deltas
                .chunks_exact(2)
                .take_while(|pair| pair.get(1) == Some(&2))
                .count();
            longest_spin = longest_spin.max(spin);
            if let SegmentStop::Sleeping(_) = a {
                for m in [&mut vec_core, &mut count_core] {
                    m.sleep(997);
                    m.drive_p1(0, false);
                    m.drive_p1(0, true);
                }
            }
        }
        if *name == "slow spi" {
            assert!(
                longest_spin > 100,
                "the spin loop never ran long enough to bulk-tick ({longest_spin} iterations)"
            );
        }
    }
}

/// Strategy for one random instruction covering every addressing-mode
/// family. Pointer-shaped operands use r8–r10, which the preamble aims at
/// scratch RAM; wilder values flow through immediates and the ALU.
fn soup_instruction() -> impl Strategy<Value = String> {
    let data_reg = (4u8..=15).prop_map(|r| format!("r{r}"));
    let ptr_reg = (8u8..=10).prop_map(|r| format!("r{r}"));
    let src = prop_oneof![
        data_reg.clone(),
        ptr_reg.clone().prop_map(|r| format!("@{r}")),
        ptr_reg.clone().prop_map(|r| format!("@{r}+")),
        (0x0300u16..0x03F0).prop_map(|a| format!("&{a:#06x}")),
        (0u16..0xFFFF).prop_map(|v| format!("#{v:#06x}")),
        // The constant-generator immediates get their own arm so they are
        // always exercised (folded constants in the decoded path).
        prop_oneof![
            Just("#0".to_string()),
            Just("#1".to_string()),
            Just("#2".to_string()),
            Just("#4".to_string()),
            Just("#8".to_string()),
            Just("#-1".to_string()),
        ],
        ((0u16..0x40), ptr_reg.clone()).prop_map(|(x, r)| format!("{:#06x}({})", x * 2, r)),
    ];
    let dst = prop_oneof![
        data_reg.clone(),
        data_reg,
        (0x0300u16..0x03F0).prop_map(|a| format!("&{a:#06x}")),
        ((0u16..0x40), ptr_reg).prop_map(|(x, r)| format!("{:#06x}({})", x * 2, r)),
        // Rare-ish: status-register destination (flag scramble, block end).
        Just("sr".to_string()),
    ];
    let two_op = prop_oneof![
        Just("mov"),
        Just("add"),
        Just("addc"),
        Just("sub"),
        Just("subc"),
        Just("cmp"),
        Just("dadd"),
        Just("bit"),
        Just("bic"),
        Just("bis"),
        Just("xor"),
        Just("and"),
    ];
    let one_op = prop_oneof![
        Just("rrc"),
        Just("rra"),
        Just("swpb"),
        Just("sxt"),
        Just("push"),
    ];
    let fmt1 = (two_op, prop::bool::ANY, src.clone(), dst).prop_map(|(m, byte, s, d)| {
        let suffix = if byte && m != "dadd" { ".b" } else { "" };
        format!("{m}{suffix} {s}, {d}")
    });
    let fmt2 = (one_op, src).prop_map(|(m, s)| format!("{m} {s}"));
    prop_oneof![fmt1, fmt2]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn generated_programs_run_in_lockstep(
        instructions in prop::collection::vec(soup_instruction(), 1..48),
        seeds in prop::collection::vec(0u16..0xFFFF, 4..5),
        jump_every in 3usize..9,
        irq_at in 5usize..180,
    ) {
        // Preamble: stack, seeded data registers, pointer registers aimed
        // at scratch RAM, interrupts enabled with all vectors populated.
        let mut src = String::from(".org 0xF000\nstart: mov #0x0A00, r1\n");
        for (i, s) in seeds.iter().enumerate() {
            src.push_str(&format!("mov #{s:#06x}, r{}\n", 4 + i));
        }
        src.push_str("mov #0x0300, r8\nmov #0x0340, r9\nmov #0x0380, r10\neint\n");
        let n = instructions.len();
        for (i, insn) in instructions.iter().enumerate() {
            src.push_str(&format!("i{i}: "));
            // Sprinkle conditional jumps over the soup: forward, to a
            // label that always exists.
            if i % jump_every == jump_every - 1 && i + 1 < n {
                let cond = ["jnz", "jz", "jc", "jnc", "jn", "jge", "jl"][i % 7];
                src.push_str(&format!("{cond} i{}\n", (i + 2).min(n)));
                continue;
            }
            src.push_str(insn);
            src.push('\n');
        }
        src.push_str(&format!("i{n}: jmp i{n}\n"));
        src.push_str("isr: add #1, r15\nreti\n");
        src.push_str(
            ".vector reset, start\n.vector port1, isr\n.vector port2, isr\n\
             .vector timera, isr\n.vector spi, isr\n",
        );
        let image = asm::assemble(&src).expect("generated soup assembles");
        // Cases run in order, so a counter keys each one's trace.
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut pair = Pair::boot(&format!("generated_programs_run_in_lockstep/case{case:03}"), &image);
        pair.attach_echo_spi();
        let mut slept = 0;
        for i in 0..400 {
            if i == irq_at {
                pair.both(|m| m.raise(Irq::Port1));
            }
            match pair.step(i) {
                StepResult::Ran { .. } => {}
                StepResult::Sleeping(_) => {
                    // A generated SR write parked the core; wake it or stop.
                    slept += 1;
                    if slept > 3 {
                        break;
                    }
                    pair.sleep(499, i);
                    pair.both(|m| m.raise(Irq::TimerA));
                }
                StepResult::IllegalInstruction { .. } => break,
            }
            if i % 37 == 0 {
                pair.both(|m| {
                    m.drive_p1(0, false);
                    m.drive_p1(0, true);
                });
            }
        }
        pair.assert_memory("after soup");
        pair.finish();
    }
}
