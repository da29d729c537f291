//! Differential property tests: the decoded engine must be observably
//! bit-identical to the IR-walking reference interpreter — same
//! `EnergyMeter` (to the energy bit), same `ProfileData`, same return value,
//! and the same errors, including `CycleLimit { limit, executed }` at every
//! possible budget, budgets expiring inside superinstructions included.

use flashram_ir::{BlockId, FuncId, MachineBlock, MachineFunction, MachineProgram, Section};
use flashram_isa::cond::Cond;
use flashram_isa::inst::Inst;
use flashram_isa::{MemWidth, Reg, ShiftOp, Terminator};
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
fn run_both(board: &Board, program: &MachineProgram, config: &RunConfig, what: &str) {
    let decoded = board.run_with_config(program, config);
    let reference = board.run_reference_with_config(program, config);
    assert_same(&decoded, &reference, what);
}

/// [`run_both`] at every cycle budget from 0 to just past the program's
/// full length, which it returns.
fn run_both_at_every_budget(board: &Board, program: &MachineProgram, what: &str) -> u64 {
    let total = board.run(program).unwrap().cycles();
    for limit in 0..=total + 2 {
        run_both(
            board,
            program,
            &RunConfig { max_cycles: limit },
            &format!("{what} budget {limit}/{total}"),
        );
    }
    total
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
    let total = run_both_at_every_budget(&board, &program, "call loop");
    assert!(total > 100, "sweep needs a nontrivial program ({total})");
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
    run_both_at_every_budget(&board, &program, "hot loop");
}

/// `main` made of the given blocks, hand-built to reach decoder paths the
/// compiler does not emit on demand.
fn program(blocks: Vec<MachineBlock>) -> MachineProgram {
    MachineProgram {
        functions: vec![MachineFunction {
            name: "main".into(),
            blocks,
            frame_size: 0,
            num_params: 0,
            is_library: false,
        }],
        globals: vec![],
        entry: FuncId(0),
    }
}

fn mov(rd: Reg, imm: i32) -> Inst {
    Inst::MovImm { rd, imm }
}

fn mov_reg(rd: Reg, rm: Reg) -> Inst {
    Inst::MovReg { rd, rm }
}

fn add(rd: Reg, rn: Reg, rm: Reg) -> Inst {
    Inst::AddReg { rd, rn, rm }
}

fn add_imm(rd: Reg, rn: Reg, imm: i32) -> Inst {
    Inst::AddImm { rd, rn, imm }
}

fn mul(rd: Reg, rn: Reg, rm: Reg) -> Inst {
    Inst::Mul { rd, rn, rm }
}

fn shift(op: ShiftOp, rd: Reg, rm: Reg, imm: u8) -> Inst {
    Inst::ShiftImm { op, rd, rm, imm }
}

fn ldr(rd: Reg, base: Reg, offset: i32) -> Inst {
    Inst::Load {
        rd,
        base,
        offset,
        width: MemWidth::Word,
    }
}

fn str(rs: Reg, base: Reg, offset: i32) -> Inst {
    Inst::Store {
        rs,
        base,
        offset,
        width: MemWidth::Word,
    }
}

fn eor(rd: Reg, rn: Reg, rm: Reg) -> Inst {
    Inst::Eor { rd, rn, rm }
}

fn orr_imm(rd: Reg, imm: i32) -> Inst {
    Inst::OrrImm { rd, rn: rd, imm }
}

/// Every superinstruction the decoder keeps still forms from its component
/// instructions — triples included, which grow out of a pair in a second
/// peephole round — and runs bit-identical to the reference interpreter at
/// every cycle budget, budgets expiring inside the fused op included.
#[test]
fn every_superinstruction_forms_and_matches_the_reference() {
    use Reg::*;
    use ShiftOp::{Asr, Lsl, Lsr};
    let board = Board::stm32vldiscovery();
    // Setup and fold use only ops that fuse with nothing (`sub`, `orr` and
    // `str` never lead a pattern, `eor` never ends one), so the pattern
    // under test is the only fusion in the block.
    let setup = [
        Inst::SubImm {
            rd: R7,
            rn: Sp,
            imm: 64,
        },
        orr_imm(R1, 1),
        orr_imm(R2, -3),
        orr_imm(R3, 40),
        str(R3, R7, 0),
        str(R2, R7, 4),
    ];
    // Fold every register the patterns write into the return value, and
    // read back the word the store pattern writes.
    let mut fold: Vec<Inst> = [R1, R2, R3, R4, R5, R6, R7]
        .into_iter()
        .map(|r| eor(R0, R0, r))
        .collect();
    fold.extend([ldr(R8, R7, 8), eor(R0, R0, R8)]);

    // (superinstruction, component instructions, ops they decode to)
    let table: Vec<(&str, Vec<Inst>, usize)> = vec![
        ("MovImm2", vec![mov(R4, 11), mov(R5, -7)], 1),
        ("MovImmMul", vec![mov(R4, 11), mul(R5, R4, R2)], 1),
        ("MulAddReg", vec![mul(R4, R3, R2), add(R5, R4, R1)], 1),
        (
            "ShiftImmAddReg",
            vec![shift(Asr, R4, R2, 1), add(R5, R4, R3)],
            1,
        ),
        ("AddImmMovReg", vec![add_imm(R4, R3, 5), mov_reg(R5, R4)], 1),
        ("LoadAddReg", vec![ldr(R4, R7, 4), add(R5, R4, R3)], 1),
        (
            "ShiftImmAddRegLoad",
            vec![shift(Lsl, R4, R1, 2), add(R5, R7, R4), ldr(R6, R5, 0)],
            1,
        ),
        (
            "MovImm2Mul",
            vec![mov(R4, 3), mov(R5, 9), mul(R6, R4, R5)],
            1,
        ),
        (
            "MulAddRegMovReg",
            vec![mul(R4, R3, R3), add(R5, R4, R2), mov_reg(R6, R5)],
            1,
        ),
        (
            "AddImmMovRegStore",
            vec![add_imm(R4, R3, 1), mov_reg(R5, R4), str(R5, R7, 8)],
            1,
        ),
        // Two-level indexing: a plain `add` ahead of the triple must not
        // stop the triple from forming.
        (
            "AddReg + ShiftImmAddRegLoad",
            vec![
                add(R4, R1, R1),
                shift(Lsr, R5, R4, 0),
                add(R6, R7, R5),
                ldr(R6, R6, 2),
            ],
            2,
        ),
    ];
    for (name, pattern, fused_ops) in table {
        let insts = setup.iter().chain(&pattern).chain(&fold).cloned().collect();
        let program = program(vec![MachineBlock::new(insts, Terminator::Return)]);
        let decoded = board.decode(&program).unwrap();
        assert_eq!(decoded.num_chunks(), 1, "{name}");
        assert_eq!(
            decoded.num_ops(),
            setup.len() + fused_ops + fold.len(),
            "{name}: {} component instructions should decode to {fused_ops} op(s)",
            pattern.len()
        );
        run_both_at_every_budget(&board, &program, name);
    }
}

/// A conditional branch whose flags come from a compare in an earlier
/// block, with an ALU op in between: the block does not end in a compare,
/// so the decoder lowers its exit to the plain flag-reading conditional
/// jump instead of a fused compare-and-branch.  Compiled code always puts
/// the compare right before the branch, so only a hand-built program
/// reaches this exit.  Both edges run (the loop is taken five times).
#[test]
fn flags_from_an_earlier_block_drive_a_conditional_branch() {
    use Reg::*;
    let board = Board::stm32vldiscovery();
    let program = program(vec![
        // 0: r0 = 0
        MachineBlock::new(
            vec![mov(R0, 0)],
            Terminator::FallThrough { target: BlockId(1) },
        ),
        // 1: loop head: r1 += 1; cmp r1, #6
        MachineBlock::new(
            vec![add_imm(R1, R1, 1), Inst::CmpImm { rn: R1, imm: 6 }],
            Terminator::FallThrough { target: BlockId(2) },
        ),
        // 2: r0 += r1; blt 1, on block 1's flags
        MachineBlock::new(
            vec![add(R0, R0, R1)],
            Terminator::CondBranch {
                cond: Cond::Lt,
                target: BlockId(1),
                fallthrough: BlockId(3),
            },
        ),
        MachineBlock::new(vec![], Terminator::Return),
    ]);
    assert_eq!(board.run(&program).unwrap().return_value, 21, "1 + ... + 6");
    run_both_at_every_budget(&board, &program, "plain conditional jump");
}

/// `main` made of `blocks`, plus `fn1` made of `callee`.
fn program_with_callee(blocks: Vec<MachineBlock>, callee: Vec<MachineBlock>) -> MachineProgram {
    let mut program = program(blocks);
    program.functions.push(MachineFunction {
        name: "callee".into(),
        blocks: callee,
        frame_size: 0,
        num_params: 0,
        is_library: false,
    });
    program
}

/// One block whose statically charged instructions touch five counter
/// buckets (ALU, multiply, divide, stack, literal load) plus the call's,
/// followed by a post-call segment.  Static charges live beside the op
/// stream, so `num_ops()` counts execution ops only, however many buckets
/// a chunk touches.
#[test]
fn a_chunk_touching_many_static_buckets_matches_the_reference() {
    use flashram_isa::inst::LitValue;
    use Reg::*;
    let board = Board::stm32vldiscovery();
    let program = program_with_callee(
        vec![MachineBlock::new(
            vec![
                Inst::Push { regs: vec![R4, R5] },
                Inst::LdrLit {
                    rd: R4,
                    value: LitValue::Const(1234),
                },
                orr_imm(R5, 7),
                mul(R0, R4, R5),
                Inst::Sdiv {
                    rd: R1,
                    rn: R0,
                    rm: R5,
                },
                Inst::Pop { regs: vec![R4, R5] },
                Inst::Bl { callee: 1 },
                add(R0, R0, R1),
            ],
            Terminator::Return,
        )],
        vec![MachineBlock::new(
            vec![add_imm(R0, R0, 3)],
            Terminator::Return,
        )],
    );
    let decoded = board.decode(&program).unwrap();
    assert_eq!(decoded.num_chunks(), 3, "main splits at the call");
    // push, ldr= (a constant move), orr, mul, sdiv, pop | add | callee's add
    assert_eq!(decoded.num_ops(), 8, "no op carries a static charge");
    assert_eq!(
        board.run(&program).unwrap().return_value,
        1234 * 7 + 3 + 1234
    );
    run_both_at_every_budget(&board, &program, "six static buckets");
}

/// A callee whose entry block is also a loop header: block 0 runs more
/// often than the function is called, so call counts must come from the
/// call sites, not from entries into the callee's first block.
#[test]
fn call_counts_ignore_loops_back_to_the_entry_block() {
    use Reg::*;
    let board = Board::stm32vldiscovery();
    let program = program_with_callee(
        vec![MachineBlock::new(
            vec![
                mov(R1, 0),
                Inst::Bl { callee: 1 },
                mov(R1, 0),
                Inst::Bl { callee: 1 },
            ],
            Terminator::Return,
        )],
        vec![
            // 0: r1 += 1; r0 += 2; loop while r1 < 3
            MachineBlock::new(
                vec![
                    add_imm(R1, R1, 1),
                    add_imm(R0, R0, 2),
                    Inst::CmpImm { rn: R1, imm: 3 },
                ],
                Terminator::CondBranch {
                    cond: Cond::Lt,
                    target: BlockId(0),
                    fallthrough: BlockId(1),
                },
            ),
            MachineBlock::new(vec![], Terminator::Return),
        ],
    );
    run_both_at_every_budget(&board, &program, "loop to the entry block");
    let out = board.run(&program).unwrap();
    assert_eq!(out.return_value, 12, "two calls of three iterations");
    assert_eq!(out.profile.call_count(FuncId(1)), 2);
    assert_eq!(out.profile.block_count(flashram_ir::BlockRef::new(1, 0)), 6);
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
