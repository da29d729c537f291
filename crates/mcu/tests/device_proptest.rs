//! Differential property tests across the device database: for every
//! registered device — and for randomly generated `DeviceDescriptor`s with
//! arbitrary wait states, prefetch settings and contention penalties — the
//! decoded engine must stay observably bit-identical to the IR-walking
//! reference interpreter, with code split arbitrarily between flash and RAM.

use flashram_device::{
    CodeMemoryKind, DeviceDescriptor, DeviceMemoryMap, MemoryRegion, OperatingPoint, RamContention,
    DEVICE_DB, STM32F100,
};
use flashram_ir::Section;
use flashram_isa::FlashTiming;
use flashram_mcu::{Board, RunConfig, RunError, RunResult};
use flashram_minicc::{compile_program, OptLevel, SourceUnit};
use proptest::prelude::*;

const SRC: &str = "
    int table[12];
    const int key[4] = {3, 5, 7, 11};
    int mix(int x) { return (x * 31) ^ (x >> 2); }
    int main() {
        for (int i = 0; i < 12; i++) { table[i] = mix(i) + key[i % 4]; }
        int s = 0;
        for (int i = 0; i < 60; i++) {
            if (i % 3 == 0) { s += table[i % 12]; } else { s -= mix(i) / (i % 5 + 1); }
        }
        return s;
    }
";

fn assert_same(
    decoded: &Result<RunResult, RunError>,
    reference: &Result<RunResult, RunError>,
    what: &str,
) {
    match (decoded, reference) {
        (Ok(d), Ok(r)) => assert!(
            d.bits_eq(r),
            "{what}: results diverge\ndecoded: {d:?}\nreference: {r:?}"
        ),
        (Err(d), Err(r)) => assert_eq!(d, r, "{what}: errors diverge"),
        (d, r) => panic!("{what}: decoded {d:?} vs reference {r:?}"),
    }
}

/// Run on both engines and assert they agree to the bit — the generated
/// wait-state/prefetch charges must bake into the decoded engine's
/// prefused static charges exactly as the reference charges them.
fn run_both(board: &Board, program: &flashram_ir::MachineProgram, config: &RunConfig, what: &str) {
    let decoded = board.run_with_config(program, config);
    let reference = board.run_reference_with_config(program, config);
    assert_same(&decoded, &reference, what);
}

/// Relocate the blocks selected by `mask` (over all application functions)
/// into RAM, exercising both memories under the device's timing model.
fn place_by_mask(program: &flashram_ir::MachineProgram, mask: u32) -> flashram_ir::MachineProgram {
    let mut placed = program.clone();
    let mut bit = 0u32;
    for f in &mut placed.functions {
        for b in &mut f.blocks {
            if mask & (1 << (bit % 32)) != 0 {
                b.section = Section::Ram;
            }
            bit += 1;
        }
    }
    placed
}

/// Leak a generated descriptor: tests only, a handful of bytes per case.
fn generated_descriptor(
    wait_states: u64,
    prefetch_enabled: bool,
    clock_hz: f64,
    load_cycles: u64,
    store_cycles: u64,
) -> &'static DeviceDescriptor {
    let ops = Box::leak(Box::new([OperatingPoint {
        name: "generated",
        clock_hz,
        vdd_mv: 3300,
        flash: FlashTiming {
            wait_states,
            prefetch_enabled,
        },
    }]));
    Box::leak(Box::new(DeviceDescriptor {
        key: "generated",
        name: "generated test part",
        core: "cortex-m3",
        memory: DeviceMemoryMap {
            code: MemoryRegion {
                base: 0x0800_0000,
                size: 64 * 1024,
            },
            code_kind: CodeMemoryKind::Flash,
            ram: MemoryRegion {
                base: 0x2000_0000,
                size: 16 * 1024,
            },
            stack_reserve: 1024,
        },
        ram_contention: RamContention {
            load_cycles,
            store_cycles,
        },
        operating_points: ops,
        default_operating_point: 0,
        energy: STM32F100.energy,
    }))
}

/// Every database entry runs the reference program identically on both
/// engines, with code split across both memories.
#[test]
fn database_devices_are_bit_identical_across_engines() {
    let program = compile_program(&[SourceUnit::application(SRC)], OptLevel::O2).unwrap();
    for desc in DEVICE_DB.all() {
        let board = Board::new(desc);
        for mask in [0u32, 0b1010_1010, u32::MAX] {
            let placed = place_by_mask(&program, mask);
            run_both(
                &board,
                &placed,
                &RunConfig::default(),
                &format!("{} mask {mask:#b}", desc.key),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random wait-state/prefetch/contention descriptors with random
    /// flash/RAM block splits: both engines agree to the bit.
    #[test]
    fn generated_devices_are_bit_identical_across_engines(
        wait_states in 0u64..4,
        prefetch in any::<bool>(),
        load_cycles in 0u64..3,
        store_cycles in 0u64..3,
        mask in any::<u32>(),
        level in prop_oneof![Just(OptLevel::O0), Just(OptLevel::O1), Just(OptLevel::O2)],
    ) {
        let desc = generated_descriptor(
            wait_states,
            prefetch,
            32_000_000.0,
            load_cycles,
            store_cycles,
        );
        let board = Board::new(desc);
        let program = compile_program(&[SourceUnit::application(SRC)], level).unwrap();
        let placed = place_by_mask(&program, mask);
        run_both(
            &board,
            &placed,
            &RunConfig::default(),
            &format!("ws={wait_states} prefetch={prefetch} mask={mask:#x} {level}"),
        );
    }

    /// Cycle budgets interact with wait-state charges: the `CycleLimit`
    /// errors (limit *and* executed cycles) must match exactly too.
    #[test]
    fn generated_devices_agree_under_cycle_limits(
        wait_states in 0u64..4,
        prefetch in any::<bool>(),
        mask in any::<u32>(),
        max_cycles in 0u64..8000,
    ) {
        let desc = generated_descriptor(wait_states, prefetch, 24_000_000.0, 1, 1);
        let board = Board::new(desc);
        let program = compile_program(&[SourceUnit::application(SRC)], OptLevel::O1).unwrap();
        let placed = place_by_mask(&program, mask);
        run_both(
            &board,
            &placed,
            &RunConfig { max_cycles },
            &format!("ws={wait_states} prefetch={prefetch} budget {max_cycles}"),
        );
    }
}

/// Wait states must actually cost cycles: the same program takes strictly
/// longer (and more energy) on a no-prefetch wait-state part than on the
/// zero-wait reference, and relocating everything to RAM erases the gap.
#[test]
fn wait_states_slow_flash_but_not_ram() {
    let program = compile_program(&[SourceUnit::application(SRC)], OptLevel::O2).unwrap();
    let zero_wait = Board::new(generated_descriptor(0, false, 24_000_000.0, 1, 1));
    let waity = Board::new(generated_descriptor(2, false, 24_000_000.0, 1, 1));

    let base_zero = zero_wait.run(&program).unwrap();
    let base_waity = waity.run(&program).unwrap();
    assert!(
        base_waity.cycles() > base_zero.cycles(),
        "flash execution must stall: {} vs {}",
        base_waity.cycles(),
        base_zero.cycles()
    );

    let all_ram = place_by_mask(&program, u32::MAX);
    let ram_zero = zero_wait.run(&all_ram).unwrap();
    let ram_waity = waity.run(&all_ram).unwrap();
    assert_eq!(
        ram_waity.cycles(),
        ram_zero.cycles(),
        "RAM execution never pays flash wait states"
    );

    // The prefetch buffer hides most of the penalty for sequential code.
    let prefetch = Board::new(generated_descriptor(2, true, 24_000_000.0, 1, 1));
    let base_prefetch = prefetch.run(&program).unwrap();
    assert!(base_prefetch.cycles() > base_zero.cycles());
    assert!(base_prefetch.cycles() < base_waity.cycles());
}
