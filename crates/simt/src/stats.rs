//! Execution statistics reported by the SIMT engines.

use serde::{Deserialize, Serialize};

/// Warp-divergence counters from a SIMT execution.
#[derive(Clone, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DivergenceStats {
    /// Conditional branches executed (per warp).
    pub branches: u64,
    /// Branches where the warp's lanes disagreed.
    pub divergent_branches: u64,
    /// Reconvergence events (divergence stack pops back to a union entry).
    pub reconvergences: u64,
    /// Deepest divergence-stack depth observed.
    pub max_stack_depth: u32,
}

impl DivergenceStats {
    /// Fraction of branches that diverged (0 when no branches ran).
    pub fn divergence_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.divergent_branches as f64 / self.branches as f64
        }
    }

    /// Fold another warp's counters into this one.
    pub fn merge(&mut self, other: &DivergenceStats) {
        self.branches += other.branches;
        self.divergent_branches += other.divergent_branches;
        self.reconvergences += other.reconvergences;
        self.max_stack_depth = self.max_stack_depth.max(other.max_stack_depth);
    }
}

/// Statistics from one kernel launch on the SIMT engine.
#[derive(Clone, Default, PartialEq, Debug, Serialize, Deserialize)]
pub struct KernelStats {
    /// Lanes in the launch.
    pub lanes: u32,
    /// Warps in the launch.
    pub warps: u32,
    /// Warp-level instruction issues (one per instruction per warp).
    pub warp_instructions: u64,
    /// Lane-level instructions (warp issues weighted by active lanes).
    pub lane_instructions: u64,
    /// Global-memory warp accesses.
    pub mem_accesses: u64,
    /// Global-memory transactions after coalescing.
    pub mem_transactions: u64,
    /// DRAM traffic implied by the transactions, in bytes.
    pub dram_bytes: u64,
    /// Constant-memory replays (serialized divergent constant reads).
    pub const_replays: u64,
    /// Extra cycles spent serializing same-address atomics.
    pub atomic_serializations: u64,
    /// Total issue cycles summed over all warps.
    pub warp_cycles: u64,
    /// Issue cycles of the slowest warp (kernel critical path when the
    /// device is underfilled).
    pub max_warp_cycles: u64,
    /// Divergence counters aggregated over warps.
    pub divergence: DivergenceStats,
}

impl KernelStats {
    /// SIMD efficiency: active-lane instructions over the theoretical peak
    /// if every issue had all `warp_size` lanes active. 1.0 = perfectly
    /// converged cohort.
    pub fn simd_efficiency(&self, warp_size: u32) -> f64 {
        if self.warp_instructions == 0 {
            return 0.0;
        }
        self.lane_instructions as f64 / (self.warp_instructions as f64 * warp_size as f64)
    }

    /// Coalescing quality: 1.0 means every warp global access needed a
    /// single transaction; higher values mean replayed (scattered) access.
    pub fn transactions_per_access(&self) -> f64 {
        if self.mem_accesses == 0 {
            return 0.0;
        }
        self.mem_transactions as f64 / self.mem_accesses as f64
    }

    /// Fold another launch (e.g. another warp or stage) into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.lanes += other.lanes;
        self.warps += other.warps;
        self.warp_instructions += other.warp_instructions;
        self.lane_instructions += other.lane_instructions;
        self.mem_accesses += other.mem_accesses;
        self.mem_transactions += other.mem_transactions;
        self.dram_bytes += other.dram_bytes;
        self.const_replays += other.const_replays;
        self.atomic_serializations += other.atomic_serializations;
        self.warp_cycles += other.warp_cycles;
        self.max_warp_cycles = self.max_warp_cycles.max(other.max_warp_cycles);
        self.divergence.merge(&other.divergence);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_rate() {
        let d = DivergenceStats {
            branches: 8,
            divergent_branches: 2,
            ..Default::default()
        };
        assert!((d.divergence_rate() - 0.25).abs() < 1e-12);
        assert_eq!(DivergenceStats::default().divergence_rate(), 0.0);
    }

    #[test]
    fn simd_efficiency_bounds() {
        let k = KernelStats {
            warp_instructions: 10,
            lane_instructions: 320,
            ..Default::default()
        };
        assert!((k.simd_efficiency(32) - 1.0).abs() < 1e-12);
        assert_eq!(KernelStats::default().simd_efficiency(32), 0.0);
    }

    #[test]
    fn transactions_per_access() {
        let k = KernelStats {
            mem_accesses: 4,
            mem_transactions: 8,
            ..Default::default()
        };
        assert!((k.transactions_per_access() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_merge_takes_max_of_max() {
        let mut a = KernelStats {
            max_warp_cycles: 5,
            warp_cycles: 5,
            ..Default::default()
        };
        a.merge(&KernelStats {
            max_warp_cycles: 9,
            warp_cycles: 9,
            ..Default::default()
        });
        assert_eq!(a.max_warp_cycles, 9);
        assert_eq!(a.warp_cycles, 14);
    }
}
