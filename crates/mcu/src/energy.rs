//! Cycle and energy accounting.
//!
//! Two layers live here:
//!
//! * [`EnergyMeter`] — the per-run result type: total cycles split by the
//!   memory the code executed from, plus accumulated energy in joules;
//! * [`CycleCounters`] — the interpreter-facing accumulator.  The hot loop
//!   only bumps integer counters bucketed by (executing memory, instruction
//!   class, data memory); the floating-point energy math runs once per
//!   bucket when the run finishes, not once per instruction.  Because the
//!   fold visits the buckets in a fixed order, two runs of the same program
//!   produce bit-identical energy numbers — which is what lets the batched
//!   runner promise results identical to sequential execution.

use flashram_ir::Section;
use flashram_isa::{InstClass, TimingModel};

use crate::power::PowerModel;

/// Accumulates cycles and energy over a run, split by the memory the code
/// executed from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    /// Total cycles executed.
    pub cycles: u64,
    /// Cycles spent executing from flash.
    pub flash_cycles: u64,
    /// Cycles spent executing from RAM.
    pub ram_cycles: u64,
    /// Total energy in joules.
    pub energy_j: f64,
}

impl EnergyMeter {
    /// A fresh meter.
    pub fn new() -> EnergyMeter {
        EnergyMeter::default()
    }

    /// Record `cycles` cycles at `power_mw` milliwatts, executed from `exec`.
    pub fn add(&mut self, cycles: u64, power_mw: f64, exec: Section, timing: &TimingModel) {
        self.cycles += cycles;
        match exec {
            Section::Flash => self.flash_cycles += cycles,
            Section::Ram => self.ram_cycles += cycles,
        }
        self.energy_j += power_mw * 1e-3 * timing.cycles_to_seconds(cycles);
    }

    /// Total energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy_j * 1e3
    }

    /// Elapsed time in seconds for the recorded cycles.
    pub fn time_s(&self, timing: &TimingModel) -> f64 {
        timing.cycles_to_seconds(self.cycles)
    }

    /// Average power in milliwatts over the recorded time.
    pub fn avg_power_mw(&self, timing: &TimingModel) -> f64 {
        let t = self.time_s(timing);
        if t == 0.0 {
            0.0
        } else {
            self.energy_j * 1e3 / t
        }
    }
}

/// Number of [`InstClass`] variants (the class axis of the counter cube),
/// derived from the last arm of `class_index` so it cannot desync from the
/// enum: adding a variant forces a new arm, which moves the count with it.
const NUM_CLASSES: usize = class_index(InstClass::Branch) + 1;
/// Number of data-access kinds: no data access, flash data, RAM data.
const NUM_DATA_KINDS: usize = 3;
/// Number of executing memories: flash, RAM.
const NUM_EXEC: usize = 2;

#[inline]
const fn class_index(class: InstClass) -> usize {
    match class {
        InstClass::Alu => 0,
        InstClass::Mul => 1,
        InstClass::Div => 2,
        InstClass::Load => 3,
        InstClass::Store => 4,
        InstClass::Stack => 5,
        InstClass::Nop => 6,
        InstClass::Call => 7,
        InstClass::Branch => 8,
    }
}

#[inline]
fn class_of(index: usize) -> InstClass {
    match index {
        0 => InstClass::Alu,
        1 => InstClass::Mul,
        2 => InstClass::Div,
        3 => InstClass::Load,
        4 => InstClass::Store,
        5 => InstClass::Stack,
        6 => InstClass::Nop,
        7 => InstClass::Call,
        _ => InstClass::Branch,
    }
}

#[inline]
fn exec_index(exec: Section) -> usize {
    match exec {
        Section::Flash => 0,
        Section::Ram => 1,
    }
}

#[inline]
fn data_index(data: Option<Section>) -> usize {
    match data {
        None => 0,
        Some(Section::Flash) => 1,
        Some(Section::Ram) => 2,
    }
}

/// Total number of buckets in the `(exec × class × data)` cube.
const NUM_BUCKETS: usize = NUM_EXEC * NUM_CLASSES * NUM_DATA_KINDS;

/// Flat integer cycle accumulators for the interpreter hot loop.
///
/// Every instruction the CPU retires lands in one bucket of a small
/// `(executing memory × instruction class × data memory)` cube; the power
/// model assigns one average power per bucket, so the expensive per-cycle
/// float accounting of a naive meter collapses into one multiply per
/// *bucket* at the end of the run (see [`CycleCounters::finish`]).
///
/// The cube is stored flat, with the data axis innermost, so the decoded
/// execution engine (`crate::decode`) can precompute a bucket index per
/// operation at decode time ([`CycleCounters::flat_index`]) and charge it
/// with a single array add ([`CycleCounters::add_flat`]) — for memory
/// operations, whose data section is only known at run time, the
/// decode-time index covers `(class, exec)` and the dynamic section is
/// added as an offset ([`CycleCounters::data_offset`]).
#[derive(Debug, Clone)]
pub struct CycleCounters {
    buckets: [u64; NUM_BUCKETS],
    total: u64,
}

impl Default for CycleCounters {
    fn default() -> Self {
        CycleCounters::new()
    }
}

impl CycleCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> CycleCounters {
        CycleCounters {
            buckets: [0; NUM_BUCKETS],
            total: 0,
        }
    }

    /// The flat index of the `(class, exec, data)` bucket, for decode-time
    /// precomputation.  The data axis is innermost: the index for a memory
    /// operation whose data section is unknown until run time is
    /// `flat_index(class, exec, None) + data_offset(section)`.
    #[inline]
    pub fn flat_index(class: InstClass, exec: Section, data: Option<Section>) -> u16 {
        ((exec_index(exec) * NUM_CLASSES + class_index(class)) * NUM_DATA_KINDS + data_index(data))
            as u16
    }

    /// The offset added to a `flat_index(class, exec, None)` base for a data
    /// access that hit `section`.
    #[inline]
    pub fn data_offset(section: Section) -> u16 {
        data_index(Some(section)) as u16
    }

    /// Charge `cycles` cycles to a bucket precomputed with
    /// [`CycleCounters::flat_index`].
    #[inline]
    pub fn add_flat(&mut self, bucket: u16, cycles: u64) {
        self.buckets[bucket as usize] += cycles;
        self.total += cycles;
    }

    /// Charge a bucket **without** updating the running total.
    ///
    /// For callers that maintain the total themselves in a register (the
    /// decoded engine's hot loop does: it adds each chunk's static cycle
    /// sum on entry, and a memory-resident total would chain a dependent
    /// read-modify-write per chunk into the loop's critical path; the
    /// static charges themselves reach the buckets only when the run
    /// finishes).  Crate-private because it can desynchronize
    /// [`CycleCounters::total_cycles`] from the buckets; pair with
    /// [`CycleCounters::set_total`] before the counters are read back.
    #[inline]
    pub(crate) fn add_bucket(&mut self, bucket: u16, cycles: u64) {
        self.buckets[bucket as usize] += cycles;
    }

    /// Set the running total, for callers that charged buckets through
    /// [`CycleCounters::add_bucket`].
    #[inline]
    pub(crate) fn set_total(&mut self, total: u64) {
        self.total = total;
    }

    /// Charge `cycles` cycles to the bucket for an instruction of `class`
    /// executing from `exec` whose data access (if any) hit `data`.
    #[inline]
    pub fn add(&mut self, class: InstClass, exec: Section, data: Option<Section>, cycles: u64) {
        self.add_flat(Self::flat_index(class, exec, data), cycles);
    }

    /// Total cycles charged so far (the interpreter's cycle-limit check
    /// reads this instead of a meter).
    #[inline]
    pub fn total_cycles(&self) -> u64 {
        self.total
    }

    /// Fold the counters into an [`EnergyMeter`] under a power calibration.
    ///
    /// Buckets are visited in a fixed order, so the result is deterministic
    /// for a given set of counters regardless of the order in which cycles
    /// were charged.
    pub fn finish(&self, power: &PowerModel, timing: &TimingModel) -> EnergyMeter {
        let mut meter = EnergyMeter::new();
        for (i, &cycles) in self.buckets.iter().enumerate() {
            if cycles == 0 {
                continue;
            }
            let exec = if i / (NUM_CLASSES * NUM_DATA_KINDS) == 0 {
                Section::Flash
            } else {
                Section::Ram
            };
            let class = class_of((i / NUM_DATA_KINDS) % NUM_CLASSES);
            let data = match i % NUM_DATA_KINDS {
                0 => None,
                1 => Some(Section::Flash),
                _ => Some(Section::Ram),
            };
            meter.add(cycles, power.power_mw(class, exec, data), exec, timing);
        }
        meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashram_isa::CORTEX_M3_TIMING;

    #[test]
    fn accounting_adds_up() {
        let mut m = EnergyMeter::new();
        let t = CORTEX_M3_TIMING;
        // 24 million cycles at 12 mW = 1 second at 12 mW = 12 mJ.
        m.add(12_000_000, 12.0, Section::Flash, &t);
        m.add(12_000_000, 12.0, Section::Ram, &t);
        assert_eq!(m.cycles, 24_000_000);
        assert_eq!(m.flash_cycles, 12_000_000);
        assert_eq!(m.ram_cycles, 12_000_000);
        assert!((m.time_s(&t) - 1.0).abs() < 1e-9);
        assert!((m.energy_mj() - 12.0).abs() < 1e-6);
        assert!((m.avg_power_mw(&t) - 12.0).abs() < 1e-6);
    }

    #[test]
    fn empty_meter_reports_zero_power() {
        let m = EnergyMeter::new();
        assert_eq!(m.avg_power_mw(&CORTEX_M3_TIMING), 0.0);
        assert_eq!(m.energy_mj(), 0.0);
    }

    #[test]
    fn every_instruction_class_has_a_distinct_in_range_bucket() {
        let all = [
            InstClass::Alu,
            InstClass::Mul,
            InstClass::Div,
            InstClass::Load,
            InstClass::Store,
            InstClass::Stack,
            InstClass::Nop,
            InstClass::Call,
            InstClass::Branch,
        ];
        let mut seen = [false; NUM_CLASSES];
        for class in all {
            let i = class_index(class);
            assert!(i < NUM_CLASSES, "{class:?} indexes out of the cube");
            assert!(!seen[i], "{class:?} shares a bucket");
            seen[i] = true;
            assert_eq!(class_of(i), class, "class_of must invert class_index");
        }
        assert!(seen.iter().all(|&s| s), "every bucket must be claimed");
    }

    #[test]
    fn counters_fold_to_the_same_meter_as_incremental_adds() {
        let t = CORTEX_M3_TIMING;
        let p = PowerModel::stm32f100();
        let charges = [
            (InstClass::Alu, Section::Flash, None, 3u64),
            (InstClass::Load, Section::Ram, Some(Section::Flash), 2),
            (InstClass::Load, Section::Ram, Some(Section::Ram), 5),
            (InstClass::Branch, Section::Flash, None, 7),
            (InstClass::Alu, Section::Flash, None, 4),
        ];
        let mut counters = CycleCounters::new();
        for (class, exec, data, cycles) in charges {
            counters.add(class, exec, data, cycles);
        }
        assert_eq!(counters.total_cycles(), 21);
        let folded = counters.finish(&p, &t);
        assert_eq!(folded.cycles, 21);
        assert_eq!(folded.flash_cycles, 14);
        assert_eq!(folded.ram_cycles, 7);
        // The folded energy matches a per-charge meter to float tolerance.
        let mut meter = EnergyMeter::new();
        for (class, exec, data, cycles) in charges {
            meter.add(cycles, p.power_mw(class, exec, data), exec, &t);
        }
        assert!((folded.energy_j - meter.energy_j).abs() < 1e-15);
        // Folding twice is bit-identical (fixed bucket order).
        assert_eq!(folded, counters.finish(&p, &t));
    }

    #[test]
    fn flat_indices_are_unique_and_data_axis_is_innermost() {
        let all_classes = [
            InstClass::Alu,
            InstClass::Mul,
            InstClass::Div,
            InstClass::Load,
            InstClass::Store,
            InstClass::Stack,
            InstClass::Nop,
            InstClass::Call,
            InstClass::Branch,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for class in all_classes {
            for exec in [Section::Flash, Section::Ram] {
                for data in [None, Some(Section::Flash), Some(Section::Ram)] {
                    let flat = CycleCounters::flat_index(class, exec, data);
                    assert!((flat as usize) < NUM_BUCKETS);
                    assert!(seen.insert(flat), "{class:?}/{exec:?}/{data:?} collides");
                    // The decode-time base + runtime data offset must land in
                    // the same bucket as the direct three-axis lookup.
                    if let Some(section) = data {
                        assert_eq!(
                            flat,
                            CycleCounters::flat_index(class, exec, None)
                                + CycleCounters::data_offset(section)
                        );
                    }
                }
            }
        }
        assert_eq!(seen.len(), NUM_BUCKETS);
    }

    #[test]
    fn add_flat_matches_add() {
        let t = CORTEX_M3_TIMING;
        let p = PowerModel::stm32f100();
        let mut direct = CycleCounters::new();
        direct.add(InstClass::Load, Section::Ram, Some(Section::Ram), 7);
        let mut flat = CycleCounters::new();
        let base = CycleCounters::flat_index(InstClass::Load, Section::Ram, None);
        flat.add_flat(base + CycleCounters::data_offset(Section::Ram), 7);
        assert_eq!(direct.total_cycles(), flat.total_cycles());
        assert_eq!(direct.finish(&p, &t), flat.finish(&p, &t));
    }

    #[test]
    fn mixed_power_average_is_weighted() {
        let mut m = EnergyMeter::new();
        let t = CORTEX_M3_TIMING;
        m.add(1_000_000, 16.0, Section::Flash, &t);
        m.add(3_000_000, 8.0, Section::Ram, &t);
        let avg = m.avg_power_mw(&t);
        assert!(
            (avg - 10.0).abs() < 1e-6,
            "weighted average should be 10 mW, got {avg}"
        );
    }
}
