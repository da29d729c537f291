//! The measurement board: load a program, run it, report energy.
//!
//! [`Board`] plays the role of the power-instrumented STM32VLDISCOVERY board
//! of the paper: it owns the memory map, the timing model and the power
//! calibration, and produces per-run measurements (time, energy, average
//! power, execution profile).  The [`SleepScenario`] helper implements the
//! Section 7 periodic-sensing energy accounting
//! `E = E_active + P_sleep · (T − T_active)`.

use flashram_device::DeviceDescriptor;
use flashram_ir::{MachineProgram, ProfileData};
use flashram_isa::TimingModel;

use crate::cpu::{Cpu, CpuResult, RunError};
use crate::decode::DecodedProgram;
use crate::energy::EnergyMeter;
use crate::mem::{DataLayout, Memory, MemoryMap};
use crate::power::PowerModel;

/// Per-run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Abort the run after this many cycles.
    pub max_cycles: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_cycles: 400_000_000,
        }
    }
}

/// A completed measurement.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The program's return value (checksum, for the benchmark suite).
    pub return_value: i32,
    /// Cycle and energy accounting.
    pub meter: EnergyMeter,
    /// Execution time in seconds.
    pub time_s: f64,
    /// Energy in millijoules.
    pub energy_mj: f64,
    /// Average power in milliwatts.
    pub avg_power_mw: f64,
    /// Per-block execution counts.
    pub profile: ProfileData,
    /// Where data and code ended up.
    pub layout: DataLayout,
}

impl RunResult {
    /// Total cycles executed.
    pub fn cycles(&self) -> u64 {
        self.meter.cycles
    }

    /// Bitwise equality across every field — float fields compared by bit
    /// pattern, not by value.
    ///
    /// This is the relation the simulator's determinism guarantees are
    /// stated in: the decoded engine versus the reference interpreter, and
    /// batched versus sequential execution, must agree under `bits_eq`.
    /// The differential test suites and the `sim_perf` bit-identity verdict
    /// all share this one definition.
    pub fn bits_eq(&self, other: &RunResult) -> bool {
        self.return_value == other.return_value
            && self.meter == other.meter
            && self.time_s.to_bits() == other.time_s.to_bits()
            && self.energy_mj.to_bits() == other.energy_mj.to_bits()
            && self.avg_power_mw.to_bits() == other.avg_power_mw.to_bits()
            && self.profile == other.profile
            && self.layout == other.layout
    }
}

/// The simulated measurement board.
#[derive(Debug, Clone, PartialEq)]
pub struct Board {
    /// Address space of the SoC.
    pub map: MemoryMap,
    /// Power calibration.
    pub power: PowerModel,
    /// Clock and contention model.
    pub timing: TimingModel,
}

impl Board {
    /// A board simulating the given device-database entry at its default
    /// operating point: memory map, flash wait-state/prefetch timing and
    /// power calibration all derive from the descriptor.
    pub fn new(desc: &DeviceDescriptor) -> Board {
        Board {
            map: MemoryMap::from_descriptor(desc),
            power: PowerModel::from_descriptor(desc),
            timing: desc.timing_model(),
        }
    }

    /// The STM32VLDISCOVERY-like configuration used throughout the
    /// evaluation: STM32F100RB memory map, 24 MHz core, Figure 1 power
    /// calibration (the `stm32f100` entry of the device database).
    pub fn stm32vldiscovery() -> Board {
        Board::new(&flashram_device::STM32F100)
    }

    /// Run a program with the default configuration.
    ///
    /// The program is lowered once by the decoded execution engine
    /// ([`crate::decode`]) and executed in its flattened form; use
    /// [`Board::decode`] + [`Board::run_decoded`] to amortize the lowering
    /// over many runs, and [`Board::run_reference`] for the IR-walking
    /// reference interpreter.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the program does not fit the part, is
    /// structurally malformed (reported eagerly, at decode time), faults,
    /// or exceeds the cycle budget.
    pub fn run(&self, program: &MachineProgram) -> Result<RunResult, RunError> {
        self.run_with_config(program, &RunConfig::default())
    }

    /// Run a program with an explicit configuration.
    ///
    /// # Errors
    ///
    /// See [`Board::run`].
    pub fn run_with_config(
        &self,
        program: &MachineProgram,
        config: &RunConfig,
    ) -> Result<RunResult, RunError> {
        let decoded = self.decode(program)?;
        self.run_decoded(&decoded, config)
    }

    /// Lower a program into its decoded form (flattened ops, resolved
    /// symbols, per-chunk static charges) for this board's memory map and
    /// timing model.
    ///
    /// The result can be executed any number of times with
    /// [`Board::run_decoded`]; decoding is the per-program work,
    /// [`Board::run_decoded`] is the per-run work.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Memory`] when the program image does not fit the
    /// part and [`RunError::BadProgram`] when it is structurally broken
    /// (dangling literal symbols, out-of-range callees or branch targets).
    pub fn decode(&self, program: &MachineProgram) -> Result<DecodedProgram, RunError> {
        let (memory, layout) = Memory::load(program, self.map)?;
        Ok(DecodedProgram::decode(
            program,
            memory,
            layout,
            &self.timing,
        )?)
    }

    /// Run an already-decoded program with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] on memory faults, call-stack overflow, or
    /// when the cycle budget is exceeded.
    pub fn run_decoded(
        &self,
        decoded: &DecodedProgram,
        config: &RunConfig,
    ) -> Result<RunResult, RunError> {
        let out = decoded.execute(&self.power, &self.timing, config.max_cycles)?;
        Ok(self.finish_run(out, decoded.layout().clone()))
    }

    /// Run a program on the IR-walking reference interpreter
    /// ([`crate::cpu::Cpu`]) with the default configuration.
    ///
    /// The decoded engine behind [`Board::run`] is held bit-identical to
    /// this one by the differential test suite; keep using this entry point
    /// where the per-instruction reference semantics are the point (e.g.
    /// one side of a differential test).
    ///
    /// # Errors
    ///
    /// See [`Board::run`].
    pub fn run_reference(&self, program: &MachineProgram) -> Result<RunResult, RunError> {
        self.run_reference_with_config(program, &RunConfig::default())
    }

    /// Run a program on the reference interpreter with an explicit
    /// configuration.
    ///
    /// # Errors
    ///
    /// See [`Board::run`].
    pub fn run_reference_with_config(
        &self,
        program: &MachineProgram,
        config: &RunConfig,
    ) -> Result<RunResult, RunError> {
        let (memory, layout) = Memory::load(program, self.map)?;
        let cpu = Cpu::new(
            program,
            memory,
            layout.clone(),
            &self.power,
            &self.timing,
            config.max_cycles,
        );
        let out = cpu.run()?;
        Ok(self.finish_run(out, layout))
    }

    /// Fold a completed CPU run into the reported [`RunResult`].
    fn finish_run(&self, out: CpuResult, layout: DataLayout) -> RunResult {
        let time_s = out.meter.time_s(&self.timing);
        let energy_mj = out.meter.energy_mj();
        let avg_power_mw = out.meter.avg_power_mw(&self.timing);
        RunResult {
            return_value: out.return_value,
            meter: out.meter,
            time_s,
            energy_mj,
            avg_power_mw,
            profile: out.profile,
            layout,
        }
    }

    /// The spare RAM a program leaves for relocated code, in bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the program does not fit the part at all.
    pub fn spare_ram(&self, program: &MachineProgram) -> Result<u32, RunError> {
        let (_, layout) = Memory::load(program, self.map)?;
        Ok(layout.ram_spare(&self.map) + layout.ram_code_bytes)
    }
}

impl Default for Board {
    fn default() -> Self {
        Board::stm32vldiscovery()
    }
}

/// The periodic-sensing application model of Section 7: the device wakes
/// every `period_s` seconds, runs the measured active region, and sleeps for
/// the rest of the period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SleepScenario {
    /// The period `T` between activations, in seconds.
    pub period_s: f64,
    /// Quiescent (sleep) power in milliwatts (`P_S`, 3.5 mW in the paper).
    pub sleep_power_mw: f64,
}

impl SleepScenario {
    /// A scenario with the paper's sleep power.
    pub fn with_period(period_s: f64) -> SleepScenario {
        SleepScenario {
            period_s,
            sleep_power_mw: PowerModel::stm32f100().sleep_mw,
        }
    }

    /// Total energy for one period, in millijoules:
    /// `E = E_active + P_S · (T − T_active)` (Equation 10 of the paper).
    ///
    /// When the active region is longer than the period the device never
    /// sleeps and the active energy is returned unchanged.
    pub fn total_energy_mj(&self, active_energy_mj: f64, active_time_s: f64) -> f64 {
        let sleep_time = (self.period_s - active_time_s).max(0.0);
        active_energy_mj + self.sleep_power_mw * sleep_time
    }

    /// Energy saved per period by an optimization that scales the active
    /// region's energy by `k_e` and its time by `k_t`
    /// (Equation 12 of the paper).
    pub fn energy_saved_mj(
        &self,
        base_energy_mj: f64,
        base_time_s: f64,
        k_e: f64,
        k_t: f64,
    ) -> f64 {
        base_energy_mj * (1.0 - k_e) + self.sleep_power_mw * base_time_s * (k_t - 1.0)
    }

    /// The battery-life extension factor: the ratio of per-period energy
    /// before and after the optimization.  A value of 1.32 means 32 % longer
    /// battery life for the same battery.
    pub fn battery_life_extension(
        &self,
        base_energy_mj: f64,
        base_time_s: f64,
        optimized_energy_mj: f64,
        optimized_time_s: f64,
    ) -> f64 {
        let before = self.total_energy_mj(base_energy_mj, base_time_s);
        let after = self.total_energy_mj(optimized_energy_mj, optimized_time_s);
        if after <= 0.0 {
            1.0
        } else {
            before / after
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashram_ir::Section;
    use flashram_minicc::{compile_program, OptLevel, SourceUnit};

    fn board() -> Board {
        Board::stm32vldiscovery()
    }

    fn compile(src: &str, opt: OptLevel) -> MachineProgram {
        compile_program(&[SourceUnit::application(src)], opt).unwrap()
    }

    #[test]
    fn runs_a_simple_program_and_returns_its_value() {
        let prog = compile("int main() { return 7 * 6; }", OptLevel::O1);
        let r = board().run(&prog).unwrap();
        assert_eq!(r.return_value, 42);
        assert!(r.cycles() > 0);
        assert!(r.energy_mj > 0.0);
        assert!(
            r.avg_power_mw > 10.0,
            "flash execution should be around 15 mW"
        );
    }

    #[test]
    fn computes_loops_and_arithmetic_correctly() {
        let src = "
            int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
            int main() {
                int s = 0;
                for (int i = 1; i <= 10; i++) { s += i; }
                int q = 1000 / 8;
                int r = 1000 % 7;
                unsigned u = 0xffffffff;
                u = u >> 4;
                return s + fact(5) + q + r + (int)(u & 0xff);
            }
        ";
        for level in OptLevel::ALL {
            let prog = compile(src, level);
            let r = board().run(&prog).unwrap();
            let expected = 55 + 120 + 125 + 6 + 0xff;
            assert_eq!(r.return_value, expected, "wrong result at {level}");
        }
    }

    #[test]
    fn arrays_globals_and_bytes_behave_like_memory() {
        let src = "
            int table[5] = {10, 20, 30, 40, 50};
            const char key[4] = {1, 2, 3, 4};
            int main() {
                int local[4];
                int s = 0;
                for (int i = 0; i < 4; i++) { local[i] = table[i] + key[i]; }
                table[0] = 99;
                for (int i = 0; i < 4; i++) { s += local[i]; }
                return s + table[0];
            }
        ";
        for level in [OptLevel::O0, OptLevel::O2] {
            let prog = compile(src, level);
            let r = board().run(&prog).unwrap();
            assert_eq!(
                r.return_value,
                10 + 20 + 30 + 40 + 1 + 2 + 3 + 4 + 99,
                "{level}"
            );
        }
    }

    #[test]
    fn all_optimization_levels_agree_on_results() {
        let src = "
            int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; } return a; }
            int main() {
                int acc = 0;
                for (int i = 1; i < 40; i++) { acc += gcd(i * 7, i + 13); }
                return acc;
            }
        ";
        let reference = board()
            .run(&compile(src, OptLevel::O0))
            .unwrap()
            .return_value;
        for level in OptLevel::ALL {
            let r = board().run(&compile(src, level)).unwrap();
            assert_eq!(r.return_value, reference, "{level} diverges from O0");
        }
    }

    #[test]
    fn o0_takes_more_cycles_than_o2() {
        let src =
            "int main() { int s = 0; for (int i = 0; i < 200; i++) { s += i * 3; } return s; }";
        let slow = board().run(&compile(src, OptLevel::O0)).unwrap();
        let fast = board().run(&compile(src, OptLevel::O2)).unwrap();
        assert_eq!(slow.return_value, fast.return_value);
        assert!(
            slow.cycles() > fast.cycles(),
            "O0 {} cycles should exceed O2 {}",
            slow.cycles(),
            fast.cycles()
        );
    }

    #[test]
    fn moving_hot_code_to_ram_lowers_average_power() {
        let src = "int main() { int s = 0; for (int i = 0; i < 2000; i++) { s += i; } return s; }";
        let prog = compile(src, OptLevel::O1);
        let base = board().run(&prog).unwrap();
        // Relocate every block of main into RAM (without instrumentation —
        // this isolates the power effect the optimizer exploits).
        let mut in_ram = prog.clone();
        let main_index = in_ram.function_index("main").unwrap().index();
        for b in &mut in_ram.functions[main_index].blocks {
            b.section = Section::Ram;
        }
        let relocated = board().run(&in_ram).unwrap();
        assert_eq!(base.return_value, relocated.return_value);
        assert!(
            relocated.avg_power_mw < base.avg_power_mw * 0.75,
            "RAM execution should cut average power: {} vs {}",
            relocated.avg_power_mw,
            base.avg_power_mw
        );
        assert!(relocated.energy_mj < base.energy_mj);
    }

    #[test]
    fn profile_counts_loop_blocks() {
        let src = "int main() { int s = 0; for (int i = 0; i < 50; i++) { s += i; } return s; }";
        let prog = compile(src, OptLevel::O1);
        let r = board().run(&prog).unwrap();
        let hottest = r.profile.hottest_block().expect("some block executed");
        assert!(
            hottest.1 >= 50,
            "loop body should run at least 50 times, got {}",
            hottest.1
        );
    }

    #[test]
    fn runaway_programs_hit_the_cycle_limit() {
        let prog = compile("int main() { while (1) { } return 0; }", OptLevel::O1);
        let err = board()
            .run_with_config(&prog, &RunConfig { max_cycles: 10_000 })
            .unwrap_err();
        let RunError::CycleLimit { limit, executed } = err else {
            panic!("expected CycleLimit, got {err:?}");
        };
        assert_eq!(limit, 10_000);
        // The check fires between blocks, so the overshoot is bounded by one
        // block of a tight loop — not by megabytes of drift.
        assert!(
            executed > limit && executed < limit + 1_000,
            "executed {executed} should sit just past the {limit} budget"
        );
    }

    #[test]
    fn sleep_scenario_reproduces_equation_12() {
        let s = SleepScenario {
            period_s: 10.0,
            sleep_power_mw: 3.5,
        };
        // Paper's fdct numbers: E0 = 16.9 mJ, TA = 1.18 s, ke = 0.825, kt = 1.33.
        let saved = s.energy_saved_mj(16.9, 1.18, 0.825, 1.33);
        assert!(
            (saved - 4.32).abs() < 0.05,
            "expected ≈4.32 mJ, got {saved}"
        );
        // Same-energy/longer-time still saves energy overall (Figure 8).
        let saved_same_energy = s.energy_saved_mj(16.9, 1.18, 1.0, 1.33);
        assert!(saved_same_energy > 0.0);
        // Total energy accounting.
        let base_total = s.total_energy_mj(16.9, 1.18);
        assert!((base_total - (16.9 + 3.5 * (10.0 - 1.18))).abs() < 1e-9);
    }

    #[test]
    fn battery_life_extension_is_ratio_of_period_energies() {
        let s = SleepScenario::with_period(2.0);
        let ext = s.battery_life_extension(16.9, 1.18, 0.825 * 16.9, 1.33 * 1.18);
        assert!(
            ext > 1.0,
            "optimized run must extend battery life, got {ext}"
        );
    }

    #[test]
    fn spare_ram_reflects_data_usage() {
        let small = compile("int main() { return 1; }", OptLevel::O1);
        let big = compile(
            "int buf[1024]; int main() { buf[0] = 1; return buf[0]; }",
            OptLevel::O1,
        );
        let b = board();
        let spare_small = b.spare_ram(&small).unwrap();
        let spare_big = b.spare_ram(&big).unwrap();
        assert!(spare_small > spare_big);
        assert_eq!(spare_small - spare_big, 4096);
    }
}
