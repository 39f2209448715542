//! The streaming fleet accumulator: per-node results folded online, in
//! node order, into O(1)-per-node state.
//!
//! The materializing engine kept every node's [`NodeOnAir`] — full frame
//! bytes, RF accounting and telemetry registry — alive until the merge
//! phase, so a million-node run held a million telemetry buffers and
//! packet payloads at once. The streaming engine reduces each node to a
//! [`PacketRecord`] list (the packet's interval, receive level, bit count
//! and checksum verdict — everything the collision sweep and channel
//! trials consume, ~40 bytes per packet) plus its telemetry buffer, and
//! folds that yield into this accumulator the moment the node finishes.
//! Live state is then O(workers) node yields plus the compact record list
//! the merge phase irreducibly needs: O(workers + packets) in all.
//!
//! # Merge law
//!
//! [`FleetAccumulator::absorb`] must be called in ascending node order
//! with no gaps — the same left-fold the materializing engine performed
//! after phase 1. Metric gauges merge by floating-point addition, which
//! is order-sensitive; folding in node order is what makes serial,
//! threaded and checkpoint/resumed runs bit-identical. The accumulator
//! asserts the discipline instead of trusting its callers.

use super::{NodeOnAir, OnAir};
use crate::stack::NodeFault;
use picocube_radio::packet::{decode, Checksum};
use picocube_sim::SimTime;
use picocube_telemetry::TelemetryBuffer;
use picocube_units::Dbm;

/// One on-air packet, reduced to the fields the merge phase consumes.
///
/// The frame bytes are gone: the channel trial needs only their bit count
/// (one Bernoulli draw per bit) and the checksum verdict, both computed at
/// reduction time. The verdict commutes with the trial — `decode` draws no
/// randomness, so evaluating it early cannot shift the merge stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PacketRecord {
    /// Transmitting node's fleet index.
    pub node: u32,
    /// Transmission start.
    pub start: SimTime,
    /// Transmission end.
    pub end: SimTime,
    /// Receive level at the fleet receiver.
    pub rx_dbm: Dbm,
    /// Frame length in bits (one channel trial per bit).
    pub bits: u32,
    /// Whether the uncorrupted frame passes the XOR checksum.
    pub decode_ok: bool,
}

impl PacketRecord {
    pub(crate) fn from_on_air(packet: &OnAir) -> Self {
        Self {
            node: packet.node as u32,
            start: packet.start,
            end: packet.end,
            rx_dbm: packet.rx_dbm,
            bits: (packet.packet.bytes.len() * 8) as u32,
            decode_ok: decode(&packet.packet.bytes, Checksum::Xor).is_ok(),
        }
    }
}

/// Offered/delivered tallies for one node — the single-allocation
/// replacement for the merge phase's former pair of `vec![0; nodes]`
/// passes, kept only when [`FleetConfig::per_node_stats`] opts in.
///
/// [`FleetConfig::per_node_stats`]: super::FleetConfig::per_node_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NodeCounts {
    /// Packets the node put on the air.
    pub offered: u32,
    /// Packets from the node the receiver decoded.
    pub delivered: u32,
}

impl NodeCounts {
    /// Delivered fraction, `0.0` for a node that never transmitted.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            f64::from(self.delivered) / f64::from(self.offered)
        }
    }
}

/// One node's contribution to the fold: its compact packet records, its
/// drained telemetry and its fault latch. Built by
/// [`NodeOnAir::into_yield`] on whatever worker simulated the node and
/// handed to [`FleetAccumulator::absorb`] in node order.
#[derive(Debug)]
pub(crate) struct NodeYield {
    pub node: usize,
    pub records: Vec<PacketRecord>,
    pub telemetry: TelemetryBuffer,
    pub fault: Option<NodeFault>,
}

impl NodeOnAir {
    /// Reduces the phase-1 result to its streaming yield, dropping the
    /// frame payloads after distilling the bit count and checksum verdict.
    pub(crate) fn into_yield(self) -> NodeYield {
        NodeYield {
            node: self.node,
            records: self.packets.iter().map(PacketRecord::from_on_air).collect(),
            telemetry: self.telemetry,
            fault: self.fault,
        }
    }
}

/// The online fold over node yields. See the module docs for the merge
/// law; [`finalize`](super::run_fleet_with_stats) turns a fully-fed
/// accumulator into the [`FleetOutcome`](super::FleetOutcome).
#[derive(Debug)]
pub(crate) struct FleetAccumulator {
    /// Next node index the fold expects (= nodes absorbed so far, plus the
    /// resume offset when restored from a checkpoint).
    next_node: usize,
    /// Nodes whose simulation latched a fault.
    faulted: usize,
    /// Compact on-air records across all folded nodes, in fold order.
    records: Vec<PacketRecord>,
    /// Metric totals (and, when events are on, the attributed event
    /// buffer) folded in node order.
    telemetry: TelemetryBuffer,
    /// Per-node tallies, when the config opted in.
    per_node: Option<Vec<NodeCounts>>,
}

impl FleetAccumulator {
    /// An empty accumulator expecting node 0 first.
    pub(crate) fn new(record_events: bool, per_node_stats: bool) -> Self {
        Self {
            next_node: 0,
            faulted: 0,
            records: Vec::new(),
            telemetry: TelemetryBuffer::with_events(record_events),
            per_node: per_node_stats.then(Vec::new),
        }
    }

    /// Restores a mid-run accumulator from checkpoint parts. `telemetry`
    /// carries the folded metrics and the (unsorted, fold-order) events.
    pub(crate) fn from_parts(
        next_node: usize,
        faulted: usize,
        records: Vec<PacketRecord>,
        telemetry: TelemetryBuffer,
        per_node: Option<Vec<NodeCounts>>,
    ) -> Self {
        Self {
            next_node,
            faulted,
            records,
            telemetry,
            per_node,
        }
    }

    /// Whether the telemetry fold keeps events.
    pub(crate) fn record_events(&self) -> bool {
        self.telemetry.events_enabled()
    }

    /// Nodes folded so far (including any checkpoint prefix).
    pub(crate) fn nodes_done(&self) -> usize {
        self.next_node
    }

    /// Folds one node's yield. The merge law: yields arrive in ascending
    /// node order with no gaps.
    pub(crate) fn absorb(&mut self, fold: NodeYield) {
        assert_eq!(
            fold.node, self.next_node,
            "fleet accumulator fed out of node order"
        );
        self.next_node += 1;
        self.faulted += usize::from(fold.fault.is_some());
        if let Some(per_node) = self.per_node.as_mut() {
            per_node.push(NodeCounts {
                offered: fold.records.len() as u32,
                delivered: 0,
            });
        }
        self.records.extend(fold.records);
        self.telemetry.absorb(fold.telemetry);
    }

    /// Read access for checkpoint capture.
    pub(crate) fn parts(
        &self,
    ) -> (
        usize,
        &[PacketRecord],
        &TelemetryBuffer,
        Option<&[NodeCounts]>,
    ) {
        (
            self.faulted,
            &self.records,
            &self.telemetry,
            self.per_node.as_deref(),
        )
    }

    /// Decomposes the fold for the merge phase.
    pub(crate) fn into_parts(
        self,
    ) -> (
        Vec<PacketRecord>,
        TelemetryBuffer,
        usize,
        Option<Vec<NodeCounts>>,
    ) {
        (self.records, self.telemetry, self.faulted, self.per_node)
    }
}
