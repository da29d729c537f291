//! Differential property tests: the decoded engine must be observably
//! bit-identical to the IR-walking reference interpreter — same
//! `EnergyMeter` (to the energy bit), same `ProfileData`, same return value,
//! and the same errors, including `CycleLimit { limit, executed }` at every
//! possible budget, budgets expiring inside superinstructions included.

use flashram_ir::Section;
use flashram_mcu::{Board, RunConfig, RunError, RunResult};
use flashram_minicc::{compile_program, OptLevel, SourceUnit};
use proptest::prelude::*;

fn compile(src: &str, level: OptLevel) -> flashram_ir::MachineProgram {
    compile_program(&[SourceUnit::application(src)], level).unwrap()
}

/// Assert two run outcomes are bit-identical, errors included.
fn assert_same(
    decoded: &Result<RunResult, RunError>,
    reference: &Result<RunResult, RunError>,
    what: &str,
) {
    match (decoded, reference) {
        (Ok(d), Ok(r)) => {
            assert!(
                d.bits_eq(r),
                "{what}: results diverge\ndecoded: {d:?}\nreference: {r:?}"
            );
        }
        (Err(d), Err(r)) => assert_eq!(d, r, "{what}: errors diverge"),
        (d, r) => panic!("{what}: decoded {d:?} vs reference {r:?}"),
    }
}

/// Run `program` on both engines and assert the decoded run is
/// bit-identical to the reference.
fn run_both(board: &Board, program: &flashram_ir::MachineProgram, config: &RunConfig, what: &str) {
    let decoded = board.run_with_config(program, config);
    let reference = board.run_reference_with_config(program, config);
    assert_same(&decoded, &reference, what);
}

/// A compact generated program: one of a few shapes covering arithmetic,
/// memory traffic and calls, with generated parameters.
#[derive(Debug, Clone, Copy)]
struct Job {
    shape: u8,
    param: i32,
    iters: u32,
}

fn job() -> impl Strategy<Value = Job> {
    (0u8..4, -40i32..40, 1u32..400).prop_map(|(shape, param, iters)| Job {
        shape,
        param,
        iters,
    })
}

fn source(job: Job) -> String {
    match job.shape {
        0 => format!(
            "int main() {{ int s = {p}; for (int i = 0; i < {n}; i++) {{ s += i * 3 - (s >> 2); }} return s; }}",
            p = job.param,
            n = job.iters,
        ),
        1 => format!(
            "
            int table[16];
            const int key[4] = {{3, 5, 7, 11}};
            int main() {{
                for (int i = 0; i < 16; i++) {{ table[i] = i * {p}; }}
                int s = 0;
                for (int i = 0; i < {n}; i++) {{ s += table[i % 16] ^ key[i % 4]; }}
                return s;
            }}
            ",
            p = job.param,
            n = job.iters % 64 + 1,
        ),
        2 => format!(
            "
            int f(int n) {{ if (n <= 1) return 1; return f(n - 1) + n * {p}; }}
            int main() {{ return f({n}); }}
            ",
            p = job.param,
            n = job.iters % 20 + 1,
        ),
        _ => format!(
            "
            unsigned mix(unsigned x) {{ return (x >> 3) ^ (x * 2654435761u) % 977; }}
            int main() {{
                unsigned s = {p}u;
                for (int i = 0; i < {n}; i++) {{ s = mix(s + i) / (i % 7 + 1); }}
                return (int)(s & 0xffff);
            }}
            ",
            p = job.param.unsigned_abs(),
            n = job.iters % 100 + 1,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Generated programs at every opt level: unlimited budget.
    #[test]
    fn generated_programs_match_the_reference(j in job()) {
        let board = Board::stm32vldiscovery();
        let src = source(j);
        for level in [OptLevel::O0, OptLevel::O2, OptLevel::Os] {
            let program = compile(&src, level);
            run_both(&board, &program, &RunConfig::default(), &format!("{j:?} at {level}"));
        }
    }

    /// Generated programs under tight generated budgets: the `CycleLimit`
    /// errors (limit *and* executed) must match exactly.
    #[test]
    fn generated_programs_match_under_cycle_limits(j in job(), max_cycles in 0u64..6000) {
        let board = Board::stm32vldiscovery();
        let program = compile(&source(j), OptLevel::O1);
        run_both(
            &board,
            &program,
            &RunConfig { max_cycles },
            &format!("{j:?} limited to {max_cycles}"),
        );
    }
}

/// Every budget from 0 to just past the program's full length: whatever the
/// limit — hitting a chunk boundary exactly, landing mid-segment, or one
/// cycle either side — both engines must agree on the result or on
/// `CycleLimit { limit, executed }`.
#[test]
fn every_cycle_budget_agrees_with_the_reference() {
    let board = Board::stm32vldiscovery();
    let src = "
        int square(int x) { return x * x; }
        int main() {
            int s = 0;
            for (int i = 0; i < 12; i++) { s += square(i) - (s >> 3); }
            return s;
        }
    ";
    let program = compile(src, OptLevel::O1);
    let total = board.run(&program).unwrap().cycles();
    assert!(total > 100, "sweep needs a nontrivial program ({total})");
    for limit in 0..=total + 2 {
        run_both(
            &board,
            &program,
            &RunConfig { max_cycles: limit },
            &format!("budget {limit}/{total}"),
        );
    }
}

/// A hot loop swept at **every** cycle budget from 0 to just past
/// completion.  The loop body mixes memory traffic and fusable arithmetic,
/// so many budgets expire at the seams of superinstructions and prefused
/// charges: `CycleLimit { limit, executed }` must still be bit-exact.
#[test]
fn hot_loop_budget_sweep_agrees_with_the_reference() {
    let board = Board::stm32vldiscovery();
    let src = "
        int acc[4];
        int main() {
            int s = 0;
            for (int i = 0; i < 150; i++) {
                acc[i % 4] += i * 3;
                s += acc[(i + 1) % 4] - (s >> 2);
            }
            return s;
        }
    ";
    let program = compile(src, OptLevel::O2);
    let total = board.run(&program).unwrap().cycles();
    for limit in 0..=total + 2 {
        run_both(
            &board,
            &program,
            &RunConfig { max_cycles: limit },
            &format!("hot-loop budget {limit}/{total}"),
        );
    }
}

/// RAM-resident code and indirect (instrumented) terminators: the
/// contention cycles and the Figure 4 branch costs must fold identically.
#[test]
fn ram_sections_and_indirect_terminators_match() {
    let board = Board::stm32vldiscovery();
    let src = "
        int buf[8];
        int main() {
            int s = 0;
            for (int i = 0; i < 40; i++) { buf[i % 8] = i; s += buf[(i * 3) % 8]; }
            return s;
        }
    ";
    let base = compile(src, OptLevel::O1);

    // Move main's blocks to RAM (contention on RAM loads/stores).
    let mut in_ram = base.clone();
    let main_index = in_ram.function_index("main").unwrap().index();
    for b in &mut in_ram.functions[main_index].blocks {
        b.section = Section::Ram;
    }
    run_both(&board, &in_ram, &RunConfig::default(), "all-RAM main");

    // Rewrite every terminator into its indirect long-range form.
    let mut indirect = base.clone();
    for f in &mut indirect.functions {
        for b in &mut f.blocks {
            b.term = b.term.clone().into_indirect();
        }
    }
    run_both(
        &board,
        &indirect,
        &RunConfig::default(),
        "indirect terminators",
    );

    // Both at once, under a mid-run cycle limit for good measure.
    let mut both = in_ram.clone();
    for f in &mut both.functions {
        for b in &mut f.blocks {
            b.term = b.term.clone().into_indirect();
        }
    }
    run_both(&board, &both, &RunConfig::default(), "RAM + indirect");
    let total = board.run(&both).unwrap().cycles();
    run_both(
        &board,
        &both,
        &RunConfig {
            max_cycles: total / 2,
        },
        "RAM + indirect, half budget",
    );
}

/// Memory faults surface identically (same fault, same address).
#[test]
fn memory_faults_match_the_reference() {
    let board = Board::stm32vldiscovery();
    // A dynamic index walks a local array far past the top of RAM.
    let src = "
        int main() {
            int buf[4];
            int s = 0;
            for (int i = 0; i < 50000; i += 16) { s += buf[i]; }
            return s;
        }
    ";
    let program = compile(src, OptLevel::O0);
    let decoded = board.run(&program);
    let reference = board.run_reference(&program);
    assert!(matches!(decoded, Err(RunError::Memory(_))), "{decoded:?}");
    assert_same(&decoded, &reference, "fault");
}

/// The structural checks the reference interpreter performs lazily are
/// performed eagerly at decode time — same category of error, reported
/// before anything runs.
#[test]
fn dangling_symbol_fails_at_decode_with_a_clear_error() {
    use flashram_isa::inst::{Inst, LitValue};
    use flashram_isa::SymbolId;

    let mut program = compile("int main() { return 3; }", OptLevel::O0);
    let main_index = program.function_index("main").unwrap().index();
    program.functions[main_index].blocks[0].insts.insert(
        0,
        Inst::LdrLit {
            rd: flashram_isa::Reg::R4,
            value: LitValue::Symbol(SymbolId(99)),
        },
    );
    let err = Board::stm32vldiscovery().decode(&program).unwrap_err();
    let RunError::BadProgram(why) = err else {
        panic!("expected BadProgram, got {err:?}");
    };
    assert!(
        why.contains("missing symbol @99"),
        "error should name the dangling symbol: {why}"
    );
}
