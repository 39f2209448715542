//! The micro-op decoder and the pre-decoded firmware translation cache.
//!
//! [`decode_at`] is the core's only instruction decoder. It turns the
//! instruction at an address into a compact [`UInsn`] with
//!
//! * operand forms made explicit ([`SrcOp`]/[`DstOp`]): register, indexed,
//!   indirect, autoincrement, immediate;
//! * constant-generator values and every PC-dependent operand folded to
//!   constants (the PC at any point inside an instruction is static);
//! * the datasheet cycle count, fully determined by the addressing modes;
//! * a basic-block boundary marker (`ends_block`) on branches, calls,
//!   `reti` and anything that can write SR — between markers the status
//!   register cannot change, which is what lets
//!   [`Mcu::run_segment`](crate::cpu::Mcu::run_segment) stream micro-ops
//!   without re-checking the sleep/interrupt state per instruction.
//!
//! Firmware is immutable after [`Mcu::load`](crate::cpu::Mcu::load), so the
//! decode can be done once, at load time: each word-aligned address inside
//! the image's segments gets an independent decode attempt (so interleaved
//! data tables cannot desynchronize a linear sweep), and the results form
//! the [`UopCache`]. Where the cache has no slot the core calls
//! [`decode_at`] on live memory instead, so both ways run the same
//! micro-op through the same executor. The decoder rejects exactly the
//! words [`disasm::decode_one`](crate::disasm::decode_one) rejects, with
//! the same sizes (pinned by a test over every first word).
//!
//! The cache is a pure function of the [`Image`], which makes it shareable:
//! a process-wide registry deduplicates caches by image content, so a
//! million-node fleet running 256 distinct firmware variants builds 256
//! caches, not a million. Self-modifying code is handled in the CPU layer:
//! any write landing in [`UopCache::span`] permanently switches that core
//! to decoding from live memory (the shared cache itself is immutable).
//!
//! No JIT, no `unsafe`. Behavior (cycles, flags, interrupt points, fault
//! latching) is pinned by the differential suite in `tests/differential.rs`
//! against a trace frozen from the original interpreter, and by the golden
//! traces.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::isa::{Condition, Format1Op, Format2Op};
use crate::memory::{FlatMemory, Image};

/// A source operand with every static part resolved at decode time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrcOp {
    /// Fully static value: constant generators (never byte-masked),
    /// immediates (byte-masked), and register-direct PC reads folded to
    /// the known next-word address.
    Const(u16),
    /// Register direct (byte ops mask on read).
    Reg(u8),
    /// Static memory address: `&ADDR`, and the PC-relative indexed /
    /// indirect forms whose address is a pure function of the
    /// instruction's location.
    Abs(u16),
    /// Indexed `X(Rn)` with the extension word captured.
    Indexed(u8, u16),
    /// Indirect `@Rn`.
    Indirect(u8),
    /// Autoincrement `@Rn+` with the post-increment amount (1 or 2).
    AutoInc(u8, u8),
}

/// A destination operand (format I only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DstOp {
    /// Register direct (byte ops mask on read).
    Reg(u8),
    /// Register-direct PC: the read value is static, and writing it back
    /// costs an extra cycle (already folded into [`UInsn::cycles`]).
    PcReg(u16),
    /// Static memory address (`&ADDR`, or `X(PC)` folded).
    Mem(u16),
    /// Indexed `X(Rn)` with the extension word captured.
    Indexed(u8, u16),
}

/// One decoded instruction's operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UOp {
    /// Two-operand format I.
    Fmt1 {
        /// The ALU operation.
        op: Format1Op,
        /// Byte-width operation.
        byte: bool,
        /// Source operand.
        src: SrcOp,
        /// Destination operand.
        dst: DstOp,
    },
    /// Single-operand format II, `reti` included (its operand is an unused
    /// constant).
    Fmt2 {
        /// The operation.
        op: Format2Op,
        /// Byte-width operation.
        byte: bool,
        /// Raw register field — the writeback target when the operand
        /// resolved without an address (including the constant-generator
        /// quirk of writing R2/R3).
        reg: u8,
        /// Source operand.
        src: SrcOp,
    },
    /// Conditional or unconditional jump with the target pre-computed.
    Jump {
        /// The condition.
        cond: Condition,
        /// Absolute branch target.
        target: u16,
    },
}

/// One pre-decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UInsn {
    /// The operation with operands resolved.
    pub op: UOp,
    /// PC after fetching the instruction and all its extension words.
    pub next_pc: u16,
    /// Datasheet cycle count (static for every addressing-mode combination).
    pub cycles: u32,
    /// Basic-block boundary: set on jumps, calls, `reti`, and any form
    /// that can write SR or PC. Between boundaries SR is invariant.
    pub ends_block: bool,
    /// Head of the two-instruction SPI busy-wait idiom
    /// (`bit.b #1, &SPISTAT` followed by a `jnz` straight back to it):
    /// [`Mcu::run_segment`](crate::cpu::Mcu::run_segment) fast-forwards the
    /// spin without per-iteration dispatch. Purely an execution hint — the
    /// fused loop replays the exact per-instruction flags, cycles, and
    /// peripheral ticks.
    pub spin_spi: bool,
}

/// The flash byte range a [`UopCache`] covers, as plain data: the core
/// keeps a copy so its self-modifying-code guard needs no access to the
/// cache itself. The default span is empty.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CoveredSpan {
    /// First byte address covered (even).
    base: u16,
    /// Bytes covered from `base`.
    bytes: usize,
}

impl CoveredSpan {
    /// Whether a write to `addr` can alias bytes any cached instruction
    /// was decoded from (the self-modifying-code guard's test).
    #[inline]
    pub(crate) fn covers(self, addr: u16) -> bool {
        usize::from(addr.wrapping_sub(self.base)) < self.bytes
    }
}

/// The pre-decoded micro-op table for one image: a PC-indexed slot per
/// word-aligned address in the covered flash span.
#[derive(Debug)]
pub(crate) struct UopCache {
    /// First byte address covered (even).
    base: u16,
    /// One slot per word from `base`; `None` where no instruction decodes.
    slots: Vec<Option<UInsn>>,
}

impl UopCache {
    /// Looks up the micro-op for `pc`. Odd PCs get no slot; the core
    /// decodes them from live memory (which models the hardware's low-bit
    /// masking plus odd increments).
    #[inline]
    pub(crate) fn lookup(&self, pc: u16) -> Option<UInsn> {
        let off = pc.wrapping_sub(self.base);
        if off & 1 != 0 {
            return None;
        }
        self.slots.get(usize::from(off >> 1)).copied().flatten()
    }

    /// The flash bytes the cached instructions were decoded from.
    pub(crate) fn span(&self) -> CoveredSpan {
        CoveredSpan {
            base: self.base,
            bytes: self.slots.len() * 2,
        }
    }

    /// Number of decoded instructions (diagnostics / tests).
    #[cfg(test)]
    pub(crate) fn decoded_len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Builds the table for an image: pure function of the image bytes.
    fn build(image: &Image) -> Self {
        let Some(lo) = image.segments().iter().map(|(org, _)| *org & !1).min() else {
            return Self {
                base: 0,
                slots: Vec::new(),
            };
        };
        // Pad the top so `covers` also catches writes to extension words
        // that run past the last segment byte (size ≤ 6 from an in-segment
        // start keeps them within 4 bytes of the end).
        let hi = image
            .segments()
            .iter()
            .map(|(org, bytes)| usize::from(*org) + bytes.len())
            .max()
            .unwrap_or(usize::from(lo))
            .saturating_add(4)
            .min(0x1_0000);
        let span = hi - usize::from(lo);
        // Which bytes the image actually provides: instructions must lie
        // wholly inside loaded segments, otherwise their extension words
        // would depend on whatever the surrounding memory happens to hold.
        let mut present = vec![false; span];
        for (org, bytes) in image.segments() {
            let start = usize::from(*org) - usize::from(lo);
            for slot in present.iter_mut().skip(start).take(bytes.len()) {
                *slot = true;
            }
        }
        let mut mem = FlatMemory::new();
        mem.load(image);

        let mut slots = vec![None; span.div_ceil(2)];
        for (word, slot) in slots.iter_mut().enumerate() {
            let off = word * 2;
            let at = lo.wrapping_add(off as u16);
            if usize::from(at) + 6 > 0x1_0000 {
                continue; // an instruction here could wrap the address space
            }
            let Some(u) = decode_at(&mem, at) else {
                continue;
            };
            let size = usize::from(u.next_pc.wrapping_sub(at).max(2));
            let contained = present
                .get(off..off + size)
                .is_some_and(|bytes| bytes.iter().all(|p| *p));
            if contained {
                *slot = Some(u);
            }
        }
        let mut cache = Self { base: lo, slots };
        cache.mark_spi_spins();
        cache
    }

    /// Fusion pass: flags each `bit.b #1, &SPISTAT` whose successor is a
    /// `jnz` straight back to it — the firmware idiom for "wait until the
    /// SPI engine finishes". The flag lets the segment runner iterate the
    /// pair without per-instruction dispatch; both instructions keep their
    /// own independent slots, so single-stepping and direct jumps into the
    /// `jnz` are unaffected.
    fn mark_spi_spins(&mut self) {
        use crate::isa::Format1Op;
        use crate::memory::io;
        for i in 0..self.slots.len() {
            let Some(u) = self.slots[i] else { continue };
            let head = self.base.wrapping_add((i * 2) as u16);
            let is_poll = matches!(
                u.op,
                UOp::Fmt1 {
                    op: Format1Op::Bit,
                    byte: true,
                    src: SrcOp::Const(1),
                    dst: DstOp::Mem(io::SPISTAT),
                }
            );
            if !is_poll {
                continue;
            }
            let loops_back = matches!(
                self.lookup(u.next_pc),
                Some(UInsn {
                    op: UOp::Jump {
                        cond: Condition::Jnz,
                        target,
                    },
                    ..
                }) if target == head
            );
            if loops_back {
                if let Some(slot) = self.slots.get_mut(i).and_then(|s| s.as_mut()) {
                    slot.spin_spi = true;
                }
            }
        }
    }
}

/// Decodes the instruction at `at` into a micro-op, or `None` for a word
/// outside the implemented subset (the core latches an illegal-instruction
/// fault there). Extension words are read from `at + 2` on, wrapping at
/// the top of the address space.
#[inline]
pub(crate) fn decode_at(mem: &FlatMemory, at: u16) -> Option<UInsn> {
    let word = mem.read16(at);
    let top = word >> 12;

    // Jumps: target is a static function of the instruction address.
    if top >> 1 == 0x1 {
        let cond = Condition::from_bits((word >> 10) & 0x7);
        let mut offset = i32::from(word & 0x3FF);
        if offset & 0x200 != 0 {
            offset -= 0x400;
        }
        let target = at.wrapping_add(2).wrapping_add((2 * offset) as u16);
        return Some(UInsn {
            op: UOp::Jump { cond, target },
            next_pc: at.wrapping_add(2),
            cycles: 2,
            ends_block: true,
            spin_spi: false,
        });
    }

    // Format II.
    if top == 0x1 {
        let op = Format2Op::from_bits((word >> 7) & 0x7)?;
        let byte = (word >> 6) & 1 != 0;
        let reg = word & 0xF;
        // `reti` is one word whatever its operand bits say.
        let (src, ext, src_cycles) = if op == Format2Op::Reti {
            (SrcOp::Const(0), 0, 0)
        } else {
            decode_src(mem, at, reg, (word >> 4) & 0x3, byte)
        };
        let base = match op {
            Format2Op::Push => 3,
            Format2Op::Call => 4,
            Format2Op::Reti => 5,
            _ => 1,
        };
        // Register-form results (no writeback address) land in the raw
        // register field; writing PC or SR ends the block, as does `call`.
        let reg_result = matches!(src, SrcOp::Const(_) | SrcOp::Reg(_))
            && matches!(
                op,
                Format2Op::Rrc | Format2Op::Rra | Format2Op::Swpb | Format2Op::Sxt
            );
        let ends_block = matches!(op, Format2Op::Call | Format2Op::Reti)
            || (reg_result && (reg == 0 || reg == 2));
        return Some(UInsn {
            op: UOp::Fmt2 {
                op,
                byte,
                reg: reg as u8,
                src,
            },
            next_pc: at.wrapping_add(2 + 2 * ext),
            cycles: base + src_cycles,
            ends_block,
            spin_spi: false,
        });
    }

    // Format I.
    let op = Format1Op::from_opcode(top)?;
    let src_reg = (word >> 8) & 0xF;
    let ad = (word >> 7) & 1;
    let byte = (word >> 6) & 1 != 0;
    let as_mode = (word >> 4) & 0x3;
    let dst_reg = word & 0xF;

    let (src, src_ext, src_cycles) = decode_src(mem, at, src_reg, as_mode, byte);
    // PC as seen by the destination resolver: after the opcode word and
    // the source's extension words.
    let dst_pc = at.wrapping_add(2 + 2 * src_ext);
    let (dst, dst_ext, dst_cycles) = if ad == 0 {
        if dst_reg == 0 {
            let v = if byte { dst_pc & 0xFF } else { dst_pc };
            (DstOp::PcReg(v), 0, 0)
        } else {
            (DstOp::Reg(dst_reg as u8), 0, 0)
        }
    } else {
        let x = mem.read16(dst_pc);
        let loc = if dst_reg == 2 {
            DstOp::Mem(x) // absolute &ADDR
        } else if dst_reg == 0 {
            // Symbolic X(PC): base is the PC after this extension word.
            DstOp::Mem(dst_pc.wrapping_add(2).wrapping_add(x))
        } else {
            DstOp::Indexed(dst_reg as u8, x)
        };
        (loc, 1, 3)
    };
    let mut cycles = 1 + src_cycles + dst_cycles;
    if matches!(dst, DstOp::PcReg(_)) && op.writes_back() {
        cycles += 1; // writing the PC costs an extra cycle
    }
    let ends_block = op.writes_back() && matches!(dst, DstOp::PcReg(_) | DstOp::Reg(2));
    Some(UInsn {
        op: UOp::Fmt1 { op, byte, src, dst },
        next_pc: at.wrapping_add(2 + 2 * (src_ext + dst_ext)),
        cycles,
        ends_block,
        spin_spi: false,
    })
}

/// Decodes a source operand. Returns `(op, extension words, extra cycles)`,
/// with every PC-dependent form folded (the PC at the extension word is
/// `at + 2`).
#[inline]
fn decode_src(mem: &FlatMemory, at: u16, reg: u16, as_mode: u16, byte: bool) -> (SrcOp, u16, u32) {
    let ext_at = at.wrapping_add(2);
    let mask = |v: u16| if byte { v & 0xFF } else { v };
    match (reg, as_mode) {
        // Constant generators: never byte-masked.
        (2, 0b10) => (SrcOp::Const(4), 0, 0),
        (2, 0b11) => (SrcOp::Const(8), 0, 0),
        (3, 0b00) => (SrcOp::Const(0), 0, 0),
        (3, 0b01) => (SrcOp::Const(1), 0, 0),
        (3, 0b10) => (SrcOp::Const(2), 0, 0),
        (3, 0b11) => (SrcOp::Const(0xFFFF), 0, 0),
        // Register direct; reading PC is static (byte ops mask on read).
        (0, 0b00) => (SrcOp::Const(mask(ext_at)), 0, 0),
        (r, 0b00) => (SrcOp::Reg(r as u8), 0, 0),
        // Absolute &ADDR.
        (2, 0b01) => (SrcOp::Abs(mem.read16(ext_at)), 1, 2),
        // Symbolic X(PC): base is the PC at the extension word.
        (0, 0b01) => (SrcOp::Abs(ext_at.wrapping_add(mem.read16(ext_at))), 1, 2),
        (r, 0b01) => (SrcOp::Indexed(r as u8, mem.read16(ext_at)), 1, 2),
        // Indirect @PC reads the word after the opcode.
        (0, 0b10) => (SrcOp::Abs(ext_at), 0, 1),
        (r, 0b10) => (SrcOp::Indirect(r as u8), 0, 1),
        // Immediate #N (@PC+), byte-masked.
        (0, 0b11) => (SrcOp::Const(mask(mem.read16(ext_at))), 1, 1),
        (r, _) => (SrcOp::AutoInc(r as u8, if byte { 1 } else { 2 }), 0, 1),
    }
}

/// Registry entry: content fingerprint, the image itself (for exact
/// equality on fingerprint collisions), and the shared cache.
type RegistryEntry = (u64, Image, Arc<UopCache>);

/// Caches are shared process-wide by image content: fleets load the same
/// few firmware variants into thousands of cores. Bounded so pathological
/// workloads (e.g. property tests generating endless distinct images)
/// cannot grow it without limit — past the cap, caches are built uncached.
const REGISTRY_CAP: usize = 4096;

fn registry() -> &'static Mutex<Vec<RegistryEntry>> {
    static REGISTRY: OnceLock<Mutex<Vec<RegistryEntry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// FNV-1a over the segment layout and bytes. Collisions are survivable:
/// the registry compares full image equality before sharing.
fn fingerprint(image: &Image) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for (org, bytes) in image.segments() {
        eat(*org as u8);
        eat((*org >> 8) as u8);
        eat(bytes.len() as u8);
        eat((bytes.len() >> 8) as u8);
        for b in bytes {
            eat(*b);
        }
    }
    h
}

/// The shared translation cache for an image: returns the registry's copy
/// when an identical image was decoded before, else builds (outside the
/// lock) and publishes it.
pub(crate) fn cache_for(image: &Image) -> Arc<UopCache> {
    let fp = fingerprint(image);
    {
        let guard = registry().lock().unwrap_or_else(PoisonError::into_inner);
        for (f, img, cache) in guard.iter() {
            if *f == fp && img == image {
                return Arc::clone(cache);
            }
        }
    }
    let built = Arc::new(UopCache::build(image));
    let mut guard = registry().lock().unwrap_or_else(PoisonError::into_inner);
    for (f, img, cache) in guard.iter() {
        if *f == fp && img == image {
            return Arc::clone(cache); // another thread won the build race
        }
    }
    if guard.len() < REGISTRY_CAP {
        guard.push((fp, image.clone(), Arc::clone(&built)));
    }
    built
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::disasm;

    fn image(src: &str) -> Image {
        assemble(src).expect("test source assembles")
    }

    #[test]
    fn decodes_whole_firmware_span() {
        let img = crate::firmware::tpms_app(0x42).expect("firmware builds");
        let cache = UopCache::build(&img);
        // Every address the disassembler decodes inside the code segment
        // must have a micro-op with a matching size.
        let mut mem = FlatMemory::new();
        mem.load(&img);
        let (org, bytes) = img
            .segments()
            .iter()
            .find(|(org, _)| *org == 0xF000)
            .expect("code segment");
        let mut at = *org;
        let end = org + bytes.len() as u16;
        let mut checked = 0;
        while at < end {
            let d = disasm::decode_one(&mem, at).expect("firmware decodes");
            let u = cache.lookup(at).expect("cached instruction");
            assert_eq!(u.next_pc, at.wrapping_add(d.size), "size must agree");
            at = at.wrapping_add(d.size);
            checked += 1;
        }
        assert!(checked > 10, "firmware should have real code");
        assert!(cache.decoded_len() >= checked);
    }

    #[test]
    fn decoder_agrees_with_disassembler_on_every_first_word() {
        // Every first word, followed by fixed extension words: the micro-op
        // decoder accepts exactly what the disassembler accepts, and both
        // give the instruction the same size.
        let at = 0xF000u16;
        let mut mem = FlatMemory::new();
        mem.write16(at + 2, 0x1234);
        mem.write16(at + 4, 0x0202);
        let mut accepted = 0;
        for word in 0..=0xFFFFu16 {
            mem.write16(at, word);
            let u = decode_at(&mem, at);
            let d = disasm::decode_one(&mem, at);
            assert_eq!(
                u.is_some(),
                d.is_ok(),
                "word {word:#06x}: acceptance differs"
            );
            if let (Some(u), Ok(d)) = (u, d) {
                assert_eq!(
                    u.next_pc.wrapping_sub(at),
                    d.size,
                    "word {word:#06x}: sizes differ"
                );
                accepted += 1;
            }
        }
        // The only holes: opcodes 0x0000-0x0FFF, and format-II op 7 with
        // any of its 512 operand/width patterns.
        assert_eq!(accepted, 0x1_0000 - 0x1000 - 0x200);
    }

    #[test]
    fn pc_relative_operands_fold_to_constants() {
        let img = image(
            ".org 0xF000\n\
             mov #0x1234, r4\n\
             mov pc, r5\n\
             jmp 0xF000\n",
        );
        let cache = UopCache::build(&img);
        // mov #imm: immediate folds to a constant.
        let u = cache.lookup(0xF000).expect("imm mov");
        assert!(matches!(
            u.op,
            UOp::Fmt1 {
                src: SrcOp::Const(0x1234),
                ..
            }
        ));
        assert_eq!(u.cycles, 2);
        // mov pc, r5 at 0xF004: PC reads as 0xF006.
        let u = cache.lookup(0xF004).expect("pc mov");
        assert!(matches!(
            u.op,
            UOp::Fmt1 {
                src: SrcOp::Const(0xF006),
                ..
            }
        ));
        // jmp: block boundary with a static target.
        let u = cache.lookup(0xF006).expect("jmp");
        assert!(u.ends_block);
        assert!(matches!(u.op, UOp::Jump { target: 0xF000, .. }));
    }

    #[test]
    fn sr_writes_end_blocks() {
        let img = image(
            ".org 0xF000\n\
             bis #0x00D8, r2\n\
             mov #1, r6\n\
             call #0xF000\n\
             reti\n",
        );
        let cache = UopCache::build(&img);
        assert!(cache.lookup(0xF000).expect("bis sr").ends_block);
        assert!(!cache.lookup(0xF004).expect("mov r6").ends_block);
        assert!(cache.lookup(0xF006).expect("call").ends_block);
        assert!(cache.lookup(0xF00A).expect("reti").ends_block);
    }

    #[test]
    fn data_words_get_no_slot_but_code_after_them_does() {
        let img = image(
            ".org 0xF000\n\
             jmp 0xF006\n\
             .word 0x0000\n\
             .word 0x0003\n\
             mov #1, r4\n",
        );
        let cache = UopCache::build(&img);
        assert!(cache.lookup(0xF002).is_none(), "0x0000 is undecodable");
        assert!(cache.lookup(0xF006).is_some(), "code after data decodes");
    }

    #[test]
    fn lookup_rejects_odd_and_out_of_span_pcs() {
        let img = image(".org 0xF000\nmov #1, r4\n");
        let cache = UopCache::build(&img);
        assert!(cache.lookup(0xF001).is_none());
        assert!(cache.lookup(0xE000).is_none());
        assert!(cache.lookup(0x0000).is_none());
    }

    #[test]
    fn covers_spans_segments_with_padding() {
        let img = image(".org 0xF000\nmov #1, r4\n");
        let span = UopCache::build(&img).span();
        assert!(span.covers(0xF000));
        assert!(span.covers(0xF003)); // inside the 4-byte pad
        assert!(!span.covers(0xEFFE));
        assert!(!CoveredSpan::default().covers(0xF000));
    }

    #[test]
    fn registry_shares_identical_images() {
        let a = image(".org 0xF000\nmov #0x5A5A, r4\nmov #0x5A5A, r5\n");
        let b = image(".org 0xF000\nmov #0x5A5A, r4\nmov #0x5A5A, r5\n");
        let c = image(".org 0xF000\nmov #0x5A5B, r4\nmov #0x5A5B, r5\n");
        let ca = cache_for(&a);
        let cb = cache_for(&b);
        let cc = cache_for(&c);
        assert!(Arc::ptr_eq(&ca, &cb), "identical images share one cache");
        assert!(!Arc::ptr_eq(&ca, &cc), "different images do not");
    }

    #[test]
    fn truncated_instruction_at_segment_end_is_not_cached() {
        // `mov #imm, r4` needs an extension word; provide only the opcode
        // word so the instruction runs past the segment's bytes.
        let mut img = Image::new();
        img.push_segment(0xF000, vec![0x34, 0x40]);
        let cache = UopCache::build(&img);
        assert!(cache.lookup(0xF000).is_none());
    }
}
