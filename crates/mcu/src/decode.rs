//! The decoded (predecoded, flattened) execution engine.
//!
//! [`Cpu::run`](crate::cpu::Cpu) interprets the nested [`MachineProgram`] IR
//! directly: every retired instruction walks the `Inst` enum, re-derives its
//! cycle cost and power class, and bumps a three-axis counter cube.  That is
//! the right *reference semantics*, but all of it is invariant across a run
//! — so this module compiles a `(program, layout)` pair **once** into a
//! [`DecodedProgram`] and lets [`Board`](crate::board::Board) drive the
//! compiled form instead:
//!
//! * all basic blocks of all functions are flattened into one contiguous
//!   array of compact fixed-size ops, split into *chunks* at call sites
//!   so the executor's main loop sees exactly the same scheduling points
//!   (block entry, call entry, post-call resume) as the reference
//!   interpreter; per-chunk metadata (static cycle sum, decoded
//!   terminator) lives outside the op stream so the dispatch loop stays
//!   minimal;
//! * literal-pool symbol references are resolved to absolute addresses at
//!   decode time, and every callee / block-target index is validated up
//!   front — the hot loop contains **no** `BadProgram` checks, and a
//!   malformed program fails at [`Board::decode`](crate::board::Board::decode)
//!   with a [`DecodeError`] instead of faulting mid-run;
//! * every charge that is statically known (ALU, multiplies, divides,
//!   resolved literal loads, push/pop, and the exit cycles of jumps,
//!   calls and returns) is summed per chunk and per [`CycleCounters`]
//!   bucket at decode time.  The hot loop only counts chunk entries; the
//!   run folds `count × cycles` into the counters once, when it finishes,
//!   and derives the block and call profile from the same counts.  Only
//!   data-dependent charges (the data memory of loads and stores, and
//!   which edge a conditional exit takes) are charged as they happen;
//! * the dynamic op *pairs and triples* that the BEEBS sweep executes
//!   often enough to pay for their code are fused into single
//!   superinstructions (including the compare-plus-conditional-branch
//!   that ends almost half of all executed blocks and the shift-add-load
//!   array-indexing idiom);
//! * the running cycle total lives in a register: each chunk entry adds
//!   the chunk's static cycle sum to it, so the budget check never reads
//!   memory.
//!
//! The engine is **observably bit-identical** to the reference interpreter
//! for every valid program: same `EnergyMeter` (to the bit — the counter
//! fold is shared and the counters are integers), same `ProfileData`, same
//! return value, and same errors, including
//! `RunError::CycleLimit { limit, executed }`, because the cycle budget is
//! checked at exactly the reference interpreter's check points (block
//! entry, call entry, post-call resume) with exactly the same running
//! totals.  Charging a chunk's static cycles on entry cannot be observed:
//! between two check points no charge is readable, every chunk a finished
//! run entered also ran to its exit, and a faulting run discards its
//! counters entirely.  The one intentional difference is *when* structural errors
//! surface: the reference interpreter reports a dangling reference only if
//! it executes it, the decoded engine rejects it before running anything.
//!
//! `crates/mcu/tests/decoded_equivalence.rs` and the workspace-level
//! `tests/decoded_differential.rs` assert the bit-identity property over
//! generated programs and the BEEBS kernels; `sim_perf` tracks the
//! throughput ratio in `BENCH_sim.json`.

use std::collections::BTreeMap;

use flashram_ir::{BlockId, BlockRef, MachineProgram, ProfileData, Section};
use flashram_isa::cond::{Cond, Flags};
use flashram_isa::inst::LitValue;
use flashram_isa::{Inst, InstClass, MemWidth, Reg, ShiftOp, Terminator, TimingModel};

use crate::cpu::{shift, CpuResult, RunError, MAX_CALL_DEPTH};
use crate::energy::CycleCounters;
use crate::mem::{DataLayout, Fault, MemError, Memory};
use crate::power::PowerModel;

/// Errors raised while lowering a program into its decoded form.
///
/// Everything the reference interpreter would report as
/// [`RunError::BadProgram`] *if it happened to execute the broken
/// instruction* is caught here, before anything runs.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// Laying out the program image failed (it does not fit the part).
    Memory(MemError),
    /// The program is structurally broken: a dangling symbol in a literal
    /// load, an out-of-range callee or branch target, an empty function, or
    /// a missing entry point.
    Invalid(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Memory(e) => write!(f, "{e}"),
            DecodeError::Invalid(why) => write!(f, "malformed program: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<MemError> for DecodeError {
    fn from(e: MemError) -> Self {
        DecodeError::Memory(e)
    }
}

impl From<DecodeError> for RunError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Memory(m) => RunError::Memory(m),
            DecodeError::Invalid(why) => RunError::BadProgram(why),
        }
    }
}

/// Precomputed charging data for a memory operation whose data section is
/// only known at run time: the bucket index for `(class, exec, data: None)`
/// (the dynamic section is added as an offset), the static base cycles, and
/// whether the op executes from RAM (and therefore pays the contention
/// stall when its data access also hits RAM).
#[derive(Debug, Clone, Copy)]
struct MemCharge {
    flat_base: u16,
    base_cycles: u8,
    contend: bool,
}

/// One decoded operation.  Compact and fixed-size: register operands are
/// raw indices, push/pop register lists live in a side table, and literal
/// loads have been resolved into plain constants at decode time.
///
/// Ops whose cycle charge is statically known carry no charge at all —
/// their cycles are summed into the owning chunk's static charges
/// ([`DecodedProgram::static_charges`]), which the run folds once at exit.
///
/// The multi-destination variants are **superinstructions**: the hot
/// dynamic op pairs and triples of the BEEBS sweep, fused at decode time so
/// the interpreter pays one dispatch instead of two or three.  A
/// fused arm executes its component ops completely and in order
/// (destination writes included), so fusion is semantics-preserving for
/// *any* adjacent ops of the right shapes, whatever their register
/// dependencies.
#[derive(Debug, Clone, Copy)]
enum Op {
    MovImm {
        rd: u8,
        imm: i32,
    },
    MovReg {
        rd: u8,
        rm: u8,
    },
    MovCond {
        cond: Cond,
        rd: u8,
        imm: i32,
    },
    AddImm {
        rd: u8,
        rn: u8,
        imm: i32,
    },
    AddReg {
        rd: u8,
        rn: u8,
        rm: u8,
    },
    SubImm {
        rd: u8,
        rn: u8,
        imm: i32,
    },
    SubReg {
        rd: u8,
        rn: u8,
        rm: u8,
    },
    RsbImm {
        rd: u8,
        rn: u8,
        imm: i32,
    },
    Mul {
        rd: u8,
        rn: u8,
        rm: u8,
    },
    Sdiv {
        rd: u8,
        rn: u8,
        rm: u8,
    },
    Udiv {
        rd: u8,
        rn: u8,
        rm: u8,
    },
    And {
        rd: u8,
        rn: u8,
        rm: u8,
    },
    Orr {
        rd: u8,
        rn: u8,
        rm: u8,
    },
    Eor {
        rd: u8,
        rn: u8,
        rm: u8,
    },
    Bic {
        rd: u8,
        rn: u8,
        rm: u8,
    },
    Mvn {
        rd: u8,
        rm: u8,
    },
    AndImm {
        rd: u8,
        rn: u8,
        imm: i32,
    },
    OrrImm {
        rd: u8,
        rn: u8,
        imm: i32,
    },
    EorImm {
        rd: u8,
        rn: u8,
        imm: i32,
    },
    ShiftImm {
        op: ShiftOp,
        rd: u8,
        rm: u8,
        imm: u8,
    },
    ShiftReg {
        op: ShiftOp,
        rd: u8,
        rn: u8,
        rm: u8,
    },
    CmpImm {
        rn: u8,
        imm: i32,
    },
    CmpReg {
        rn: u8,
        rm: u8,
    },
    Load {
        rd: u8,
        base: u8,
        width: MemWidth,
        charge: MemCharge,
        offset: i32,
    },
    LoadIdx {
        rd: u8,
        base: u8,
        index: u8,
        width: MemWidth,
        charge: MemCharge,
    },
    Store {
        rs: u8,
        base: u8,
        width: MemWidth,
        charge: MemCharge,
        offset: i32,
    },
    StoreIdx {
        rs: u8,
        base: u8,
        index: u8,
        width: MemWidth,
        charge: MemCharge,
    },
    Push {
        start: u32,
        len: u16,
    },
    Pop {
        start: u32,
        len: u16,
    },
    /// `mov rd1, #imm1; mov rd2, #imm2` (covers resolved literal loads).
    MovImm2 {
        rd1: u8,
        imm1: i32,
        rd2: u8,
        imm2: i32,
    },
    /// `mov rd1, #imm; mul rd2, rn, rm`.
    MovImmMul {
        rd1: u8,
        imm: i32,
        rd2: u8,
        rn: u8,
        rm: u8,
    },
    /// `mul rd1, rn1, rm1; add rd2, rn2, rm2`.
    MulAddReg {
        rd1: u8,
        rn1: u8,
        rm1: u8,
        rd2: u8,
        rn2: u8,
        rm2: u8,
    },
    /// `lsl/lsr/asr rd1, rm1, #imm; add rd2, rn2, rm2`.
    ShiftImmAddReg {
        op: ShiftOp,
        rd1: u8,
        rm1: u8,
        imm: u8,
        rd2: u8,
        rn2: u8,
        rm2: u8,
    },
    /// `add rd1, rn1, #imm; mov rd2, rm2`.
    AddImmMovReg {
        rd1: u8,
        rn1: u8,
        imm: i32,
        rd2: u8,
        rm2: u8,
    },
    /// `ldr rd1, [base, #offset]; add rd2, rn2, rm2`.
    LoadAddReg {
        rd1: u8,
        base: u8,
        width: MemWidth,
        charge: MemCharge,
        offset: i32,
        rd2: u8,
        rn2: u8,
        rm2: u8,
    },
    /// `lsl rd1, rm1, #imm; add rd2, rn2, rm2; ldr rd3, [base, #offset]`
    /// — the array-indexing idiom, the hottest triple of the sweep.
    ShiftImmAddRegLoad {
        op: ShiftOp,
        rd1: u8,
        rm1: u8,
        imm: u8,
        rd2: u8,
        rn2: u8,
        rm2: u8,
        rd3: u8,
        base: u8,
        width: MemWidth,
        charge: MemCharge,
        offset: i32,
    },
    /// `mov rd1, #imm1; mov rd2, #imm2; mul rd3, rn, rm`.
    MovImm2Mul {
        rd1: u8,
        imm1: i32,
        rd2: u8,
        imm2: i32,
        rd3: u8,
        rn: u8,
        rm: u8,
    },
    /// `mul rd1, rn1, rm1; add rd2, rn2, rm2; mov rd3, rm3`.
    MulAddRegMovReg {
        rd1: u8,
        rn1: u8,
        rm1: u8,
        rd2: u8,
        rn2: u8,
        rm2: u8,
        rd3: u8,
        rm3: u8,
    },
    /// `add rd1, rn1, #imm; mov rd2, rm2; str rs, [base, #offset]`.
    AddImmMovRegStore {
        rd1: u8,
        rn1: u8,
        imm: i32,
        rd2: u8,
        rm2: u8,
        rs: u8,
        base: u8,
        width: MemWidth,
        charge: MemCharge,
        offset: i32,
    },
}

/// How control leaves a chunk.  All targets are direct indices into the
/// chunk array, resolved and validated at decode time.  The cycles of an
/// exit that always costs the same are part of the chunk's static charges;
/// only the two-way exits carry the cycles of each edge.
#[derive(Debug, Clone, Copy)]
enum ChunkExit {
    /// `bl callee`: push the next chunk, enter the callee's entry chunk.
    Call { target: u32, callee: u32 },
    /// Unconditional transfer (branch, fall-through, or their indirect
    /// forms — after decoding only the cycle cost distinguishes them).
    Jump { target: u32 },
    /// Flag-conditional two-way transfer.
    CondJump {
        cond: Cond,
        target: u32,
        fallthrough: u32,
        taken_cycles: u8,
        not_taken_cycles: u8,
        bucket: u16,
    },
    /// `cbz`/`cbnz`-style two-way transfer on a register compare.
    CmpJump {
        nonzero: bool,
        rn: u8,
        target: u32,
        fallthrough: u32,
        taken_cycles: u8,
        not_taken_cycles: u8,
        bucket: u16,
    },
    /// `cmp rn, #imm` fused with the conditional branch that consumes it —
    /// the most common block ending by far.  Still updates the flags (later
    /// code may read them).
    CmpImmCondJump {
        rn: u8,
        imm: i32,
        cond: Cond,
        target: u32,
        fallthrough: u32,
        taken_cycles: u8,
        not_taken_cycles: u8,
        bucket: u16,
    },
    /// `cmp rn, rm` fused with the conditional branch that consumes it.
    CmpRegCondJump {
        rn: u8,
        rm: u8,
        cond: Cond,
        target: u32,
        fallthrough: u32,
        taken_cycles: u8,
        not_taken_cycles: u8,
        bucket: u16,
    },
    /// Return to the caller (or finish the run at the outermost frame).
    Return,
}

/// One straight-line piece of a basic block: a run of ops ending either at
/// a call site or at the block's terminator.  Chunk boundaries are exactly
/// the reference interpreter's scheduling points, which is what keeps the
/// cycle-limit check bit-identical.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    op_start: u32,
    op_end: u32,
    /// Sum of the chunk's static charges, added to the running total on
    /// entry for the budget check.
    cycles: u32,
    exit: ChunkExit,
}

/// Decode-time fusion of two adjacent ops into one superinstruction, if
/// the pair matches one of the hot shapes.
fn fuse(a: Op, b: Op) -> Option<Op> {
    Some(match (a, b) {
        (Op::MovImm { rd: rd1, imm: imm1 }, Op::MovImm { rd: rd2, imm: imm2 }) => Op::MovImm2 {
            rd1,
            imm1,
            rd2,
            imm2,
        },
        (Op::MovImm { rd: rd1, imm }, Op::Mul { rd, rn, rm }) => Op::MovImmMul {
            rd1,
            imm,
            rd2: rd,
            rn,
            rm,
        },
        (
            Op::Mul {
                rd: rd1,
                rn: rn1,
                rm: rm1,
            },
            Op::AddReg { rd, rn, rm },
        ) => Op::MulAddReg {
            rd1,
            rn1,
            rm1,
            rd2: rd,
            rn2: rn,
            rm2: rm,
        },
        (
            Op::ShiftImm {
                op,
                rd: rd1,
                rm: rm1,
                imm,
            },
            Op::AddReg { rd, rn, rm },
        ) => Op::ShiftImmAddReg {
            op,
            rd1,
            rm1,
            imm,
            rd2: rd,
            rn2: rn,
            rm2: rm,
        },
        (
            Op::AddImm {
                rd: rd1,
                rn: rn1,
                imm,
            },
            Op::MovReg { rd, rm },
        ) => Op::AddImmMovReg {
            rd1,
            rn1,
            imm,
            rd2: rd,
            rm2: rm,
        },
        (
            Op::Load {
                rd,
                base,
                width,
                charge,
                offset,
            },
            Op::AddReg { rd: rd2, rn, rm },
        ) => Op::LoadAddReg {
            rd1: rd,
            base,
            width,
            charge,
            offset,
            rd2,
            rn2: rn,
            rm2: rm,
        },
        // Second-round rules: grow pair superinstructions into the hot
        // triples (a later peephole pass sees the pair as `a`).
        (
            Op::ShiftImmAddReg {
                op,
                rd1,
                rm1,
                imm,
                rd2,
                rn2,
                rm2,
            },
            Op::Load {
                rd,
                base,
                width,
                charge,
                offset,
            },
        ) => Op::ShiftImmAddRegLoad {
            op,
            rd1,
            rm1,
            imm,
            rd2,
            rn2,
            rm2,
            rd3: rd,
            base,
            width,
            charge,
            offset,
        },
        (
            Op::MovImm2 {
                rd1,
                imm1,
                rd2,
                imm2,
            },
            Op::Mul { rd, rn, rm },
        ) => Op::MovImm2Mul {
            rd1,
            imm1,
            rd2,
            imm2,
            rd3: rd,
            rn,
            rm,
        },
        (
            Op::MulAddReg {
                rd1,
                rn1,
                rm1,
                rd2,
                rn2,
                rm2,
            },
            Op::MovReg { rd, rm },
        ) => Op::MulAddRegMovReg {
            rd1,
            rn1,
            rm1,
            rd2,
            rn2,
            rm2,
            rd3: rd,
            rm3: rm,
        },
        (
            Op::AddImmMovReg {
                rd1,
                rn1,
                imm,
                rd2,
                rm2,
            },
            Op::Store {
                rs,
                base,
                width,
                charge,
                offset,
            },
        ) => Op::AddImmMovRegStore {
            rd1,
            rn1,
            imm,
            rd2,
            rm2,
            rs,
            base,
            width,
            charge,
            offset,
        },
        _ => return None,
    })
}

/// Greedy left-to-right fusion over a chunk body, repeated until a pass
/// fuses nothing more, so pair superinstructions grow into the triple
/// patterns.
fn peephole(body: &mut Vec<Op>) {
    loop {
        let before = body.len();
        let mut out = Vec::with_capacity(body.len());
        let mut i = 0;
        while i < body.len() {
            if i + 1 < body.len() {
                if let Some(f) = fuse(body[i], body[i + 1]) {
                    out.push(f);
                    i += 2;
                    continue;
                }
            }
            out.push(body[i]);
            i += 1;
        }
        *body = out;
        if body.len() == before {
            break;
        }
    }
}

/// A program lowered for the decoded execution engine, together with the
/// pristine memory image and data layout it was decoded against.
///
/// Build one with [`Board::decode`](crate::board::Board::decode) and run it
/// any number of times with
/// [`Board::run_decoded`](crate::board::Board::run_decoded) — each run
/// clones the memory image instead of re-laying-out the program, and decode
/// work (flattening, validation, symbol resolution, charge fusion) is never
/// repeated.  [`BatchRunner::run_configs`](crate::batch::BatchRunner::run_configs)
/// relies on exactly this to decode once for N configurations.
///
/// A `DecodedProgram` is tied to the board that decoded it (memory map and
/// timing model are baked into the lowered ops); run it on the same board.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    ops: Vec<Op>,
    chunks: Vec<Chunk>,
    /// Static `(chunk, bucket, cycles)` charges, one per bucket a chunk
    /// touches, folded as `entries × cycles` when a run finishes.
    static_charges: Vec<(u32, u16, u64)>,
    reg_lists: Vec<Reg>,
    entry_chunk: u32,
    /// Flat block index → `(function, block)`, for the profile fold.
    block_map: Vec<BlockRef>,
    /// Flat block index → its head chunk, whose entries count the block.
    head_chunk: Vec<u32>,
    memory: Memory,
    layout: DataLayout,
}

/// Decode-time emission state for one program.
struct Emitter {
    ops: Vec<Op>,
    chunks: Vec<Chunk>,
    static_charges: Vec<(u32, u16, u64)>,
    reg_lists: Vec<Reg>,
    /// Chunk index of each flat block's head chunk.
    head_chunk: Vec<u32>,
    /// First flat block index of each function.
    func_block_base: Vec<usize>,
}

impl DecodedProgram {
    /// Lower `program` against an already-built memory image and layout.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Invalid`] when the program is structurally
    /// broken: dangling `LdrLit` symbols, out-of-range callees or branch
    /// targets, empty functions, or a missing entry function.
    pub fn decode(
        program: &MachineProgram,
        memory: Memory,
        layout: DataLayout,
        timing: &TimingModel,
    ) -> Result<DecodedProgram, DecodeError> {
        if program.entry.index() >= program.functions.len() {
            return Err(DecodeError::Invalid(format!(
                "entry function {} out of range",
                program.entry
            )));
        }

        // Flat block numbering.
        let mut block_map = Vec::new();
        let mut func_block_base = Vec::with_capacity(program.functions.len());
        for (fi, f) in program.functions.iter().enumerate() {
            func_block_base.push(block_map.len());
            if f.blocks.is_empty() {
                return Err(DecodeError::Invalid(format!(
                    "function {} has no blocks",
                    f.name
                )));
            }
            for bi in 0..f.blocks.len() {
                block_map.push(BlockRef::new(fi, bi));
            }
        }

        let mut e = Emitter {
            ops: Vec::new(),
            chunks: Vec::new(),
            static_charges: Vec::new(),
            reg_lists: Vec::new(),
            head_chunk: vec![0; block_map.len()],
            func_block_base,
        };

        // Emission: one pass in (function, block) order.  Branch targets
        // and callee entries are emitted as flat block indices and patched
        // to chunk indices afterwards (forward branches make a single
        // direct pass impossible).
        for (fi, f) in program.functions.iter().enumerate() {
            for bi in 0..f.blocks.len() {
                e.lower_block(program, fi, bi, &layout, timing)?;
            }
        }

        // Patch pass: flat block index → chunk index of its head chunk.
        for chunk in &mut e.chunks {
            match &mut chunk.exit {
                ChunkExit::Jump { target } => *target = e.head_chunk[*target as usize],
                ChunkExit::CondJump {
                    target,
                    fallthrough,
                    ..
                }
                | ChunkExit::CmpJump {
                    target,
                    fallthrough,
                    ..
                }
                | ChunkExit::CmpImmCondJump {
                    target,
                    fallthrough,
                    ..
                }
                | ChunkExit::CmpRegCondJump {
                    target,
                    fallthrough,
                    ..
                } => {
                    *target = e.head_chunk[*target as usize];
                    *fallthrough = e.head_chunk[*fallthrough as usize];
                }
                ChunkExit::Call { target, callee } => {
                    *target = e.head_chunk[e.func_block_base[*callee as usize]];
                }
                ChunkExit::Return => {}
            }
        }

        let entry_chunk = e.head_chunk[e.func_block_base[program.entry.index()]];
        Ok(DecodedProgram {
            ops: e.ops,
            chunks: e.chunks,
            static_charges: e.static_charges,
            reg_lists: e.reg_lists,
            entry_chunk,
            block_map,
            head_chunk: e.head_chunk,
            memory,
            layout,
        })
    }

    /// The data layout the program was decoded against.
    pub fn layout(&self) -> &DataLayout {
        &self.layout
    }

    /// Number of decoded execution operations (static charges live in a
    /// side table, not in the op stream).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of straight-line chunks the blocks were split into.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }
}

impl Emitter {
    /// Lower one basic block into chunks: the (fused) body segments split
    /// at calls, each with its static charges and decoded exit.
    fn lower_block(
        &mut self,
        program: &MachineProgram,
        fi: usize,
        bi: usize,
        layout: &DataLayout,
        timing: &TimingModel,
    ) -> Result<(), DecodeError> {
        let f = &program.functions[fi];
        let b = &f.blocks[bi];
        let exec = b.section;
        self.head_chunk[self.func_block_base[fi] + bi] = self.chunks.len() as u32;
        let context = |what: &str| format!("{}:{bi} {what}", f.name);

        let alu = CycleCounters::flat_index(InstClass::Alu, exec, None);
        let branch_bucket = CycleCounters::flat_index(InstClass::Branch, exec, None);

        // Flash wait-state penalties are statically known per block:
        // RAM-resident code pays none, flash-resident code pays the fetch
        // penalty on every instruction and the refill/call penalties on
        // control transfers — so they join the static charges.
        let (instr_pen, call_pen) = match exec {
            Section::Flash => (
                timing.flash_instr_penalty_cycles(),
                timing.flash_call_penalty_cycles(),
            ),
            Section::Ram => (0, 0),
        };

        // Per-bucket static charges and execution ops of the current
        // segment.
        let mut fused: BTreeMap<u16, u64> = BTreeMap::new();
        let mut body: Vec<Op> = Vec::new();

        for inst in &b.insts {
            match inst {
                Inst::Nop => {
                    // Execution is a no-op; only the charge survives decoding.
                    *fused
                        .entry(CycleCounters::flat_index(InstClass::Nop, exec, None))
                        .or_insert(0) += inst.base_cycles() + instr_pen;
                }
                Inst::MovImm { rd, imm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::MovImm {
                        rd: rd.index() as u8,
                        imm: *imm,
                    });
                }
                Inst::MovReg { rd, rm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::MovReg {
                        rd: rd.index() as u8,
                        rm: rm.index() as u8,
                    });
                }
                Inst::MovCond { cond, rd, imm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::MovCond {
                        cond: *cond,
                        rd: rd.index() as u8,
                        imm: *imm,
                    });
                }
                Inst::LdrLit { rd, value } => {
                    // Resolve the literal now: a symbol reference becomes a
                    // plain constant move, and a dangling symbol is a decode
                    // error instead of a per-execution lookup.
                    let v = match value {
                        LitValue::Const(c) => *c,
                        LitValue::Symbol(s) => {
                            *layout.symbol_addr.get(s.0 as usize).ok_or_else(|| {
                                DecodeError::Invalid(context(&format!(
                                    "literal references missing symbol {s}"
                                )))
                            })? as i32
                        }
                    };
                    // The literal pool lives alongside the code, so the data
                    // section equals the executing section — statically known.
                    let mut cycles = inst.base_cycles() + instr_pen;
                    if exec == Section::Ram {
                        cycles += timing.ram_load_contention_cycles;
                    }
                    *fused
                        .entry(CycleCounters::flat_index(InstClass::Load, exec, Some(exec)))
                        .or_insert(0) += cycles;
                    body.push(Op::MovImm {
                        rd: rd.index() as u8,
                        imm: v,
                    });
                }
                Inst::AddImm { rd, rn, imm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::AddImm {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        imm: *imm,
                    });
                }
                Inst::AddReg { rd, rn, rm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::AddReg {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        rm: rm.index() as u8,
                    });
                }
                Inst::SubImm { rd, rn, imm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::SubImm {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        imm: *imm,
                    });
                }
                Inst::SubReg { rd, rn, rm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::SubReg {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        rm: rm.index() as u8,
                    });
                }
                Inst::RsbImm { rd, rn, imm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::RsbImm {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        imm: *imm,
                    });
                }
                Inst::Mul { rd, rn, rm } => {
                    *fused
                        .entry(CycleCounters::flat_index(InstClass::Mul, exec, None))
                        .or_insert(0) += inst.base_cycles() + instr_pen;
                    body.push(Op::Mul {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        rm: rm.index() as u8,
                    });
                }
                Inst::Sdiv { rd, rn, rm } => {
                    *fused
                        .entry(CycleCounters::flat_index(InstClass::Div, exec, None))
                        .or_insert(0) += inst.base_cycles() + instr_pen;
                    body.push(Op::Sdiv {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        rm: rm.index() as u8,
                    });
                }
                Inst::Udiv { rd, rn, rm } => {
                    *fused
                        .entry(CycleCounters::flat_index(InstClass::Div, exec, None))
                        .or_insert(0) += inst.base_cycles() + instr_pen;
                    body.push(Op::Udiv {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        rm: rm.index() as u8,
                    });
                }
                Inst::And { rd, rn, rm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::And {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        rm: rm.index() as u8,
                    });
                }
                Inst::Orr { rd, rn, rm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::Orr {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        rm: rm.index() as u8,
                    });
                }
                Inst::Eor { rd, rn, rm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::Eor {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        rm: rm.index() as u8,
                    });
                }
                Inst::Bic { rd, rn, rm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::Bic {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        rm: rm.index() as u8,
                    });
                }
                Inst::Mvn { rd, rm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::Mvn {
                        rd: rd.index() as u8,
                        rm: rm.index() as u8,
                    });
                }
                Inst::AndImm { rd, rn, imm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::AndImm {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        imm: *imm,
                    });
                }
                Inst::OrrImm { rd, rn, imm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::OrrImm {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        imm: *imm,
                    });
                }
                Inst::EorImm { rd, rn, imm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::EorImm {
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        imm: *imm,
                    });
                }
                Inst::ShiftImm { op, rd, rm, imm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::ShiftImm {
                        op: *op,
                        rd: rd.index() as u8,
                        rm: rm.index() as u8,
                        imm: *imm,
                    });
                }
                Inst::ShiftReg { op, rd, rn, rm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::ShiftReg {
                        op: *op,
                        rd: rd.index() as u8,
                        rn: rn.index() as u8,
                        rm: rm.index() as u8,
                    });
                }
                Inst::CmpImm { rn, imm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::CmpImm {
                        rn: rn.index() as u8,
                        imm: *imm,
                    });
                }
                Inst::CmpReg { rn, rm } => {
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::CmpReg {
                        rn: rn.index() as u8,
                        rm: rm.index() as u8,
                    });
                }
                Inst::AddSp { delta } => {
                    // `add sp, sp, #delta` is just an immediate add after
                    // decoding.
                    *fused.entry(alu).or_insert(0) += 1 + instr_pen;
                    body.push(Op::AddImm {
                        rd: Reg::Sp.index() as u8,
                        rn: Reg::Sp.index() as u8,
                        imm: *delta,
                    });
                }
                Inst::Load {
                    rd,
                    base,
                    offset,
                    width,
                } => {
                    body.push(Op::Load {
                        rd: rd.index() as u8,
                        base: base.index() as u8,
                        width: *width,
                        charge: mem_charge(inst, InstClass::Load, exec, instr_pen),
                        offset: *offset,
                    });
                }
                Inst::LoadIdx {
                    rd,
                    base,
                    index,
                    width,
                } => {
                    body.push(Op::LoadIdx {
                        rd: rd.index() as u8,
                        base: base.index() as u8,
                        index: index.index() as u8,
                        width: *width,
                        charge: mem_charge(inst, InstClass::Load, exec, instr_pen),
                    });
                }
                Inst::Store {
                    rs,
                    base,
                    offset,
                    width,
                } => {
                    body.push(Op::Store {
                        rs: rs.index() as u8,
                        base: base.index() as u8,
                        width: *width,
                        charge: mem_charge(inst, InstClass::Store, exec, instr_pen),
                        offset: *offset,
                    });
                }
                Inst::StoreIdx {
                    rs,
                    base,
                    index,
                    width,
                } => {
                    body.push(Op::StoreIdx {
                        rs: rs.index() as u8,
                        base: base.index() as u8,
                        index: index.index() as u8,
                        width: *width,
                        charge: mem_charge(inst, InstClass::Store, exec, instr_pen),
                    });
                }
                Inst::Push { regs } => {
                    // The stack lives in RAM: the data section is static, so
                    // the charge is static even though execution can fault
                    // (a faulting run discards its counters, so counting it
                    // on chunk entry is unobservable).
                    *fused
                        .entry(CycleCounters::flat_index(
                            InstClass::Stack,
                            exec,
                            Some(Section::Ram),
                        ))
                        .or_insert(0) += inst.base_cycles() + instr_pen;
                    let start = self.reg_lists.len() as u32;
                    self.reg_lists.extend_from_slice(regs);
                    body.push(Op::Push {
                        start,
                        len: regs.len() as u16,
                    });
                }
                Inst::Pop { regs } => {
                    *fused
                        .entry(CycleCounters::flat_index(
                            InstClass::Stack,
                            exec,
                            Some(Section::Ram),
                        ))
                        .or_insert(0) += inst.base_cycles() + instr_pen;
                    let start = self.reg_lists.len() as u32;
                    self.reg_lists.extend_from_slice(regs);
                    body.push(Op::Pop {
                        start,
                        len: regs.len() as u16,
                    });
                }
                Inst::Bl { callee } => {
                    // A call ends the chunk; execution resumes at the chunk
                    // that follows in emission order.
                    let ci = *callee as usize;
                    if ci >= program.functions.len() {
                        return Err(DecodeError::Invalid(context(&format!(
                            "calls missing function fn{callee}"
                        ))));
                    }
                    *fused
                        .entry(CycleCounters::flat_index(InstClass::Call, exec, None))
                        .or_insert(0) += inst.base_cycles() + call_pen;
                    let exit = ChunkExit::Call {
                        // Patched to the callee's entry chunk afterwards.
                        target: 0,
                        callee: *callee,
                    };
                    self.flush_chunk(&mut fused, &mut body, exit)?;
                }
            }
        }

        // The terminator.
        let target_block = |t: BlockId| -> Result<u32, DecodeError> {
            if t.index() >= f.blocks.len() {
                return Err(DecodeError::Invalid(context(&format!(
                    "branches to out-of-range block {t}"
                ))));
            }
            Ok((self.func_block_base[fi] + t.index()) as u32)
        };
        let kind = b.term.kind();
        let (term_taken_pen, term_not_taken_pen) = match exec {
            Section::Flash => (
                timing.flash_terminator_penalty_cycles(kind, true),
                timing.flash_terminator_penalty_cycles(kind, false),
            ),
            Section::Ram => (0, 0),
        };
        let exit = match &b.term {
            Terminator::Branch { target }
            | Terminator::IndirectBranch { target }
            | Terminator::FallThrough { target }
            | Terminator::IndirectFallThrough { target } => ChunkExit::Jump {
                target: target_block(*target)?,
            },
            Terminator::CondBranch {
                cond,
                target,
                fallthrough,
            }
            | Terminator::IndirectCondBranch {
                cond,
                target,
                fallthrough,
            } => {
                let target = target_block(*target)?;
                let fallthrough = target_block(*fallthrough)?;
                let taken_cycles = (kind.taken_cycles() + term_taken_pen) as u8;
                let not_taken_cycles = (kind.not_taken_cycles() + term_not_taken_pen) as u8;
                // Fuse the compare that feeds the branch into the exit —
                // `cmp` + conditional branch ends almost half of all
                // dynamic blocks.
                match body.last().copied() {
                    Some(Op::CmpImm { rn, imm }) => {
                        body.pop();
                        ChunkExit::CmpImmCondJump {
                            rn,
                            imm,
                            cond: *cond,
                            target,
                            fallthrough,
                            taken_cycles,
                            not_taken_cycles,
                            bucket: branch_bucket,
                        }
                    }
                    Some(Op::CmpReg { rn, rm }) => {
                        body.pop();
                        ChunkExit::CmpRegCondJump {
                            rn,
                            rm,
                            cond: *cond,
                            target,
                            fallthrough,
                            taken_cycles,
                            not_taken_cycles,
                            bucket: branch_bucket,
                        }
                    }
                    _ => ChunkExit::CondJump {
                        cond: *cond,
                        target,
                        fallthrough,
                        taken_cycles,
                        not_taken_cycles,
                        bucket: branch_bucket,
                    },
                }
            }
            Terminator::CompareBranch {
                nonzero,
                rn,
                target,
                fallthrough,
            }
            | Terminator::IndirectCompareBranch {
                nonzero,
                rn,
                target,
                fallthrough,
            } => ChunkExit::CmpJump {
                nonzero: *nonzero,
                rn: rn.index() as u8,
                target: target_block(*target)?,
                fallthrough: target_block(*fallthrough)?,
                taken_cycles: (kind.taken_cycles() + term_taken_pen) as u8,
                not_taken_cycles: (kind.not_taken_cycles() + term_not_taken_pen) as u8,
                bucket: branch_bucket,
            },
            Terminator::Return => ChunkExit::Return,
        };
        // A jump or return always costs its taken cycles: a static charge.
        if matches!(exit, ChunkExit::Jump { .. } | ChunkExit::Return) {
            *fused.entry(branch_bucket).or_insert(0) += kind.taken_cycles() + term_taken_pen;
        }
        self.flush_chunk(&mut fused, &mut body, exit)
    }

    /// Emit the chunk under construction: record its static charges
    /// (ascending bucket order, so emission is deterministic) and their
    /// sum, fuse hot op runs, and append the execution ops.
    fn flush_chunk(
        &mut self,
        fused: &mut BTreeMap<u16, u64>,
        body: &mut Vec<Op>,
        exit: ChunkExit,
    ) -> Result<(), DecodeError> {
        let chunk = self.chunks.len() as u32;
        self.static_charges.extend(
            fused
                .iter()
                .map(|(&bucket, &cycles)| (chunk, bucket, cycles)),
        );
        let cycles = u32::try_from(fused.values().sum::<u64>()).map_err(|_| {
            DecodeError::Invalid("straight-line cycle aggregate overflows u32".into())
        })?;
        fused.clear();
        peephole(body);
        let op_start = self.ops.len() as u32;
        self.ops.append(body);
        self.chunks.push(Chunk {
            op_start,
            op_end: self.ops.len() as u32,
            cycles,
            exit,
        });
        Ok(())
    }
}

fn mem_charge(inst: &Inst, class: InstClass, exec: Section, instr_pen: u64) -> MemCharge {
    MemCharge {
        flat_base: CycleCounters::flat_index(class, exec, None),
        base_cycles: (inst.base_cycles() + instr_pen) as u8,
        contend: exec == Section::Ram,
    }
}

/// Mutable per-run state of one execution of a decoded program.
struct ExecState {
    memory: Memory,
    regs: [i32; 16],
    flags: Flags,
    counters: CycleCounters,
    /// Entries into each chunk.
    chunk_counts: Vec<u64>,
    call_stack: Vec<u32>,
    load_pen: u64,
    store_pen: u64,
}

impl ExecState {
    /// Fresh per-run state for one execution of `prog` (pristine memory
    /// image, zeroed counters, SP at the top of RAM).
    fn new(prog: &DecodedProgram, timing: &TimingModel) -> ExecState {
        let mut regs = [0i32; 16];
        regs[Reg::Sp.index()] = prog.memory.map().initial_sp() as i32;
        ExecState {
            memory: prog.memory.clone(),
            regs,
            flags: Flags::default(),
            counters: CycleCounters::new(),
            chunk_counts: vec![0u64; prog.chunks.len()],
            call_stack: Vec::new(),
            load_pen: timing.ram_load_contention_cycles,
            store_pen: timing.ram_store_contention_cycles,
        }
    }

    /// Read a register.  Indices come from `Reg::index()` at decode time so
    /// they are always `< 16`; the mask proves it to the bounds checker.
    #[inline(always)]
    fn r(&self, i: u8) -> i32 {
        self.regs[(i & 15) as usize]
    }

    #[inline(always)]
    fn set_r(&mut self, i: u8, v: i32) {
        self.regs[(i & 15) as usize] = v;
    }

    /// Charge a load whose data section was just resolved; returns the
    /// cycles charged so the caller can maintain the running total in a
    /// register.
    #[inline]
    fn charge_load(&mut self, charge: MemCharge, section: Section) -> u64 {
        let mut cycles = charge.base_cycles as u64;
        if charge.contend && section == Section::Ram {
            cycles += self.load_pen;
        }
        self.counters.add_bucket(
            charge.flat_base + CycleCounters::data_offset(section),
            cycles,
        );
        cycles
    }

    /// Store counterpart of [`ExecState::charge_load`].
    #[inline]
    fn charge_store(&mut self, charge: MemCharge, section: Section) -> u64 {
        let mut cycles = charge.base_cycles as u64;
        if charge.contend && section == Section::Ram {
            cycles += self.store_pen;
        }
        self.counters.add_bucket(
            charge.flat_base + CycleCounters::data_offset(section),
            cycles,
        );
        cycles
    }
}

impl DecodedProgram {
    /// Execute the decoded program.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] on memory faults, call-stack overflow, or
    /// when `max_cycles` is exceeded (`RunError::BadProgram` cannot occur:
    /// everything it would report was validated at decode time).
    pub fn execute(
        &self,
        power: &PowerModel,
        timing: &TimingModel,
        max_cycles: u64,
    ) -> Result<CpuResult, RunError> {
        let mut st = ExecState::new(self, timing);

        // The running cycle total lives in a register, not in the counter
        // struct: the budget check would otherwise chain memory
        // read-modify-writes into the loop's critical path.  Dynamic
        // charges go to their buckets through `add_bucket` as they happen;
        // the static ones are folded from the chunk counts, and the total
        // is written back, when the run completes.
        let mut total: u64 = 0;
        let mut pc = self.entry_chunk;
        loop {
            // The budget check sits at exactly the reference interpreter's
            // scheduling points (block entry, call entry, post-call
            // resume), with all of the previous chunk's charges already
            // applied — so `executed` is bit-identical.
            if total > max_cycles {
                return Err(RunError::CycleLimit {
                    limit: max_cycles,
                    executed: total,
                });
            }
            let chunk = &self.chunks[pc as usize];
            st.chunk_counts[pc as usize] += 1;
            total += chunk.cycles as u64;
            for op in self.ops[chunk.op_start as usize..chunk.op_end as usize]
                .iter()
                .copied()
            {
                // Faults stay a compact `Copy` value inside the op bodies
                // and widen into a `RunError` only here, on the cold path.
                if let Err(fault) = exec_op(op, &self.reg_lists, &mut st, &mut total) {
                    return Err(RunError::Memory(MemError::from(fault)));
                }
            }
            match take_exit(&chunk.exit, &mut st, &mut total, pc)? {
                Some(next) => pc = next,
                None => return Ok(self.assemble(st, total, power, timing)),
            }
        }
    }

    /// Fold a finished run's state into a [`CpuResult`]: charge every
    /// chunk's static charges once per entry, write the running total
    /// back, collapse the counter cube into the meter, and derive the
    /// profile from the chunk counts.
    fn assemble(
        &self,
        mut st: ExecState,
        total: u64,
        power: &PowerModel,
        timing: &TimingModel,
    ) -> CpuResult {
        for &(chunk, bucket, cycles) in &self.static_charges {
            st.counters
                .add_bucket(bucket, st.chunk_counts[chunk as usize] * cycles);
        }
        st.counters.set_total(total);
        let meter = st.counters.finish(power, timing);
        let mut profile = ProfileData::new();
        for (&block, &head) in self.block_map.iter().zip(&self.head_chunk) {
            profile.add_block_count(block, st.chunk_counts[head as usize]);
        }
        // A call is an entry into a chunk that ends in `bl`, not into the
        // callee's entry chunk: a loop back to block 0 enters that too.
        for (chunk, &count) in self.chunks.iter().zip(&st.chunk_counts) {
            if let ChunkExit::Call { callee, .. } = chunk.exit {
                profile.add_call_count(flashram_ir::FuncId(callee), count);
            }
        }
        CpuResult {
            return_value: st.regs[Reg::R0.index()],
            meter,
            profile,
        }
    }
}

/// Execute one decoded op against `st`, maintaining the caller's running
/// cycle total.
#[inline(always)]
fn exec_op(op: Op, reg_lists: &[Reg], st: &mut ExecState, total: &mut u64) -> Result<(), Fault> {
    match op {
        Op::MovImm { rd, imm } => st.set_r(rd, imm),
        Op::MovReg { rd, rm } => st.set_r(rd, st.r(rm)),
        Op::MovCond { cond, rd, imm } => {
            if cond.holds(st.flags) {
                st.set_r(rd, imm);
            }
        }
        Op::AddImm { rd, rn, imm } => st.set_r(rd, st.r(rn).wrapping_add(imm)),
        Op::AddReg { rd, rn, rm } => st.set_r(rd, st.r(rn).wrapping_add(st.r(rm))),
        Op::SubImm { rd, rn, imm } => st.set_r(rd, st.r(rn).wrapping_sub(imm)),
        Op::SubReg { rd, rn, rm } => st.set_r(rd, st.r(rn).wrapping_sub(st.r(rm))),
        Op::RsbImm { rd, rn, imm } => st.set_r(rd, imm.wrapping_sub(st.r(rn))),
        Op::Mul { rd, rn, rm } => st.set_r(rd, st.r(rn).wrapping_mul(st.r(rm))),
        Op::Sdiv { rd, rn, rm } => {
            let divisor = st.r(rm);
            let v = if divisor == 0 {
                0
            } else {
                st.r(rn).wrapping_div(divisor)
            };
            st.set_r(rd, v);
        }
        Op::Udiv { rd, rn, rm } => {
            let divisor = st.r(rm) as u32;
            let v = (st.r(rn) as u32).checked_div(divisor).unwrap_or(0) as i32;
            st.set_r(rd, v);
        }
        Op::And { rd, rn, rm } => st.set_r(rd, st.r(rn) & st.r(rm)),
        Op::Orr { rd, rn, rm } => st.set_r(rd, st.r(rn) | st.r(rm)),
        Op::Eor { rd, rn, rm } => st.set_r(rd, st.r(rn) ^ st.r(rm)),
        Op::Bic { rd, rn, rm } => st.set_r(rd, st.r(rn) & !st.r(rm)),
        Op::Mvn { rd, rm } => st.set_r(rd, !st.r(rm)),
        Op::AndImm { rd, rn, imm } => st.set_r(rd, st.r(rn) & imm),
        Op::OrrImm { rd, rn, imm } => st.set_r(rd, st.r(rn) | imm),
        Op::EorImm { rd, rn, imm } => st.set_r(rd, st.r(rn) ^ imm),
        Op::ShiftImm { op, rd, rm, imm } => {
            st.set_r(rd, shift(op, st.r(rm), imm as u32));
        }
        Op::ShiftReg { op, rd, rn, rm } => {
            let amount = (st.r(rm) as u32) & 0xff;
            let v = if amount >= 32 {
                match op {
                    ShiftOp::Asr => st.r(rn) >> 31,
                    _ => 0,
                }
            } else {
                shift(op, st.r(rn), amount)
            };
            st.set_r(rd, v);
        }
        Op::CmpImm { rn, imm } => st.flags = Flags::from_cmp(st.r(rn), imm),
        Op::CmpReg { rn, rm } => st.flags = Flags::from_cmp(st.r(rn), st.r(rm)),
        Op::Load {
            rd,
            base,
            width,
            charge,
            offset,
        } => {
            let addr = (st.r(base) as u32).wrapping_add(offset as u32);
            let (v, section) = st.memory.read_fast(addr, width)?;
            st.set_r(rd, v);
            *total += st.charge_load(charge, section);
        }
        Op::LoadIdx {
            rd,
            base,
            index,
            width,
            charge,
        } => {
            let addr = (st.r(base) as u32).wrapping_add(st.r(index) as u32);
            let (v, section) = st.memory.read_fast(addr, width)?;
            st.set_r(rd, v);
            *total += st.charge_load(charge, section);
        }
        Op::Store {
            rs,
            base,
            width,
            charge,
            offset,
        } => {
            let addr = (st.r(base) as u32).wrapping_add(offset as u32);
            let section = st.memory.write_fast(addr, st.r(rs), width)?;
            *total += st.charge_store(charge, section);
        }
        Op::StoreIdx {
            rs,
            base,
            index,
            width,
            charge,
        } => {
            let addr = (st.r(base) as u32).wrapping_add(st.r(index) as u32);
            let section = st.memory.write_fast(addr, st.r(rs), width)?;
            *total += st.charge_store(charge, section);
        }
        Op::Push { start, len } => {
            let regs = &reg_lists[start as usize..start as usize + len as usize];
            let mut sp = st.regs[Reg::Sp.index()] as u32;
            sp = sp.wrapping_sub(4 * len as u32);
            for (i, r) in regs.iter().enumerate() {
                st.memory.write_fast(
                    sp.wrapping_add(4 * i as u32),
                    st.regs[r.index()],
                    MemWidth::Word,
                )?;
            }
            st.regs[Reg::Sp.index()] = sp as i32;
        }
        Op::Pop { start, len } => {
            let base = st.regs[Reg::Sp.index()] as u32;
            for i in 0..len as usize {
                let (v, _) = st
                    .memory
                    .read_fast(base.wrapping_add(4 * i as u32), MemWidth::Word)?;
                let r = reg_lists[start as usize + i];
                st.regs[r.index()] = v;
            }
            st.regs[Reg::Sp.index()] = (base + 4 * len as u32) as i32;
        }
        // Superinstructions: first op completely, then the second.
        Op::MovImm2 {
            rd1,
            imm1,
            rd2,
            imm2,
        } => {
            st.set_r(rd1, imm1);
            st.set_r(rd2, imm2);
        }
        Op::MovImmMul {
            rd1,
            imm,
            rd2,
            rn,
            rm,
        } => {
            st.set_r(rd1, imm);
            st.set_r(rd2, st.r(rn).wrapping_mul(st.r(rm)));
        }
        Op::MulAddReg {
            rd1,
            rn1,
            rm1,
            rd2,
            rn2,
            rm2,
        } => {
            st.set_r(rd1, st.r(rn1).wrapping_mul(st.r(rm1)));
            st.set_r(rd2, st.r(rn2).wrapping_add(st.r(rm2)));
        }
        Op::ShiftImmAddReg {
            op,
            rd1,
            rm1,
            imm,
            rd2,
            rn2,
            rm2,
        } => {
            st.set_r(rd1, shift(op, st.r(rm1), imm as u32));
            st.set_r(rd2, st.r(rn2).wrapping_add(st.r(rm2)));
        }
        Op::AddImmMovReg {
            rd1,
            rn1,
            imm,
            rd2,
            rm2,
        } => {
            st.set_r(rd1, st.r(rn1).wrapping_add(imm));
            st.set_r(rd2, st.r(rm2));
        }
        Op::LoadAddReg {
            rd1,
            base,
            width,
            charge,
            offset,
            rd2,
            rn2,
            rm2,
        } => {
            let addr = (st.r(base) as u32).wrapping_add(offset as u32);
            let (v, section) = st.memory.read_fast(addr, width)?;
            st.set_r(rd1, v);
            *total += st.charge_load(charge, section);
            st.set_r(rd2, st.r(rn2).wrapping_add(st.r(rm2)));
        }
        Op::ShiftImmAddRegLoad {
            op,
            rd1,
            rm1,
            imm,
            rd2,
            rn2,
            rm2,
            rd3,
            base,
            width,
            charge,
            offset,
        } => {
            st.set_r(rd1, shift(op, st.r(rm1), imm as u32));
            st.set_r(rd2, st.r(rn2).wrapping_add(st.r(rm2)));
            let addr = (st.r(base) as u32).wrapping_add(offset as u32);
            let (v, section) = st.memory.read_fast(addr, width)?;
            st.set_r(rd3, v);
            *total += st.charge_load(charge, section);
        }
        Op::MovImm2Mul {
            rd1,
            imm1,
            rd2,
            imm2,
            rd3,
            rn,
            rm,
        } => {
            st.set_r(rd1, imm1);
            st.set_r(rd2, imm2);
            st.set_r(rd3, st.r(rn).wrapping_mul(st.r(rm)));
        }
        Op::MulAddRegMovReg {
            rd1,
            rn1,
            rm1,
            rd2,
            rn2,
            rm2,
            rd3,
            rm3,
        } => {
            st.set_r(rd1, st.r(rn1).wrapping_mul(st.r(rm1)));
            st.set_r(rd2, st.r(rn2).wrapping_add(st.r(rm2)));
            st.set_r(rd3, st.r(rm3));
        }
        Op::AddImmMovRegStore {
            rd1,
            rn1,
            imm,
            rd2,
            rm2,
            rs,
            base,
            width,
            charge,
            offset,
        } => {
            st.set_r(rd1, st.r(rn1).wrapping_add(imm));
            st.set_r(rd2, st.r(rm2));
            let addr = (st.r(base) as u32).wrapping_add(offset as u32);
            let section = st.memory.write_fast(addr, st.r(rs), width)?;
            *total += st.charge_store(charge, section);
        }
    }
    Ok(())
}

/// Apply a chunk's exit: charge the cycles of the edge a two-way exit
/// takes, update the flags and the call stack, and hand back the next
/// chunk to dispatch — `None` when the outermost frame returned and the
/// run is complete.
#[inline(always)]
fn take_exit(
    exit: &ChunkExit,
    st: &mut ExecState,
    total: &mut u64,
    pc: u32,
) -> Result<Option<u32>, RunError> {
    match *exit {
        ChunkExit::Call { target, .. } => {
            if st.call_stack.len() >= MAX_CALL_DEPTH {
                return Err(RunError::CallDepth(MAX_CALL_DEPTH));
            }
            st.call_stack.push(pc + 1);
            Ok(Some(target))
        }
        ChunkExit::Jump { target } => Ok(Some(target)),
        ChunkExit::CondJump {
            cond,
            target,
            fallthrough,
            taken_cycles,
            not_taken_cycles,
            bucket,
        } => {
            let (next, cycles) = if cond.holds(st.flags) {
                (target, taken_cycles)
            } else {
                (fallthrough, not_taken_cycles)
            };
            st.counters.add_bucket(bucket, cycles as u64);
            *total += cycles as u64;
            Ok(Some(next))
        }
        ChunkExit::CmpJump {
            nonzero,
            rn,
            target,
            fallthrough,
            taken_cycles,
            not_taken_cycles,
            bucket,
        } => {
            let (next, cycles) = if (st.r(rn) != 0) == nonzero {
                (target, taken_cycles)
            } else {
                (fallthrough, not_taken_cycles)
            };
            st.counters.add_bucket(bucket, cycles as u64);
            *total += cycles as u64;
            Ok(Some(next))
        }
        ChunkExit::CmpImmCondJump {
            rn,
            imm,
            cond,
            target,
            fallthrough,
            taken_cycles,
            not_taken_cycles,
            bucket,
        } => {
            st.flags = Flags::from_cmp(st.r(rn), imm);
            let (next, cycles) = if cond.holds(st.flags) {
                (target, taken_cycles)
            } else {
                (fallthrough, not_taken_cycles)
            };
            st.counters.add_bucket(bucket, cycles as u64);
            *total += cycles as u64;
            Ok(Some(next))
        }
        ChunkExit::CmpRegCondJump {
            rn,
            rm,
            cond,
            target,
            fallthrough,
            taken_cycles,
            not_taken_cycles,
            bucket,
        } => {
            st.flags = Flags::from_cmp(st.r(rn), st.r(rm));
            let (next, cycles) = if cond.holds(st.flags) {
                (target, taken_cycles)
            } else {
                (fallthrough, not_taken_cycles)
            };
            st.counters.add_bucket(bucket, cycles as u64);
            *total += cycles as u64;
            Ok(Some(next))
        }
        ChunkExit::Return => Ok(st.call_stack.pop()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::Board;
    use flashram_ir::{FuncId, MachineBlock, MachineFunction};
    use flashram_isa::SymbolId;

    fn one_block_program(insts: Vec<Inst>) -> MachineProgram {
        MachineProgram {
            functions: vec![MachineFunction {
                name: "main".into(),
                blocks: vec![MachineBlock::new(insts, Terminator::Return)],
                frame_size: 0,
                num_params: 0,
                is_library: false,
            }],
            globals: vec![],
            entry: FuncId(0),
        }
    }

    fn decode(program: &MachineProgram) -> Result<DecodedProgram, DecodeError> {
        let board = Board::stm32vldiscovery();
        let (memory, layout) = Memory::load(program, board.map)?;
        DecodedProgram::decode(program, memory, layout, &board.timing)
    }

    #[test]
    fn ops_stay_compact() {
        // The whole point of the flattened form is a small, fixed op
        // stride; superinstruction variants must not balloon it.
        assert!(
            std::mem::size_of::<Op>() <= 20,
            "Op grew to {} bytes",
            std::mem::size_of::<Op>()
        );
    }

    #[test]
    fn dangling_literal_symbol_fails_at_decode() {
        let program = one_block_program(vec![Inst::LdrLit {
            rd: Reg::R0,
            value: LitValue::Symbol(SymbolId(3)),
        }]);
        let err = decode(&program).unwrap_err();
        let DecodeError::Invalid(why) = err else {
            panic!("expected Invalid, got {err:?}");
        };
        assert!(
            why.contains("missing symbol @3") && why.contains("main:0"),
            "error should name the symbol and the block: {why}"
        );
    }

    #[test]
    fn out_of_range_callee_fails_at_decode() {
        let program = one_block_program(vec![Inst::Bl { callee: 7 }]);
        let err = decode(&program).unwrap_err();
        assert!(matches!(err, DecodeError::Invalid(ref why) if why.contains("fn7")));
    }

    #[test]
    fn out_of_range_branch_target_fails_at_decode() {
        let mut program = one_block_program(vec![]);
        program.functions[0].blocks[0].term = Terminator::Branch { target: BlockId(9) };
        let err = decode(&program).unwrap_err();
        assert!(matches!(err, DecodeError::Invalid(ref why) if why.contains("out-of-range")));
    }

    #[test]
    fn empty_functions_and_bad_entries_fail_at_decode() {
        let mut no_blocks = one_block_program(vec![]);
        no_blocks.functions[0].blocks.clear();
        assert!(matches!(
            decode(&no_blocks),
            Err(DecodeError::Invalid(ref why)) if why.contains("no blocks")
        ));

        let mut bad_entry = one_block_program(vec![]);
        bad_entry.entry = FuncId(5);
        assert!(matches!(
            decode(&bad_entry),
            Err(DecodeError::Invalid(ref why)) if why.contains("entry function")
        ));
    }

    #[test]
    fn static_charges_stay_out_of_the_op_stream() {
        let program = one_block_program(vec![
            Inst::MovImm {
                rd: Reg::R0,
                imm: 1,
            },
            Inst::AddImm {
                rd: Reg::R0,
                rn: Reg::R0,
                imm: 2,
            },
            Inst::SubImm {
                rd: Reg::R0,
                rn: Reg::R0,
                imm: 1,
            },
        ]);
        let decoded = decode(&program).unwrap();
        // Three execution ops: the ALU cycles and the return's cycles are
        // the chunk's static charges, kept beside the op stream and folded
        // once when the run finishes.
        assert_eq!(decoded.num_chunks(), 1);
        assert_eq!(decoded.num_ops(), 3);
        let board = Board::stm32vldiscovery();
        let out = decoded
            .execute(&board.power, &board.timing, u64::MAX)
            .unwrap();
        assert_eq!(out.return_value, 2);
        // 3 ALU cycles + 3 for the return terminator.
        assert_eq!(out.meter.cycles, 6);
    }

    #[test]
    fn calls_split_blocks_into_segments() {
        let mut program = one_block_program(vec![
            Inst::MovImm {
                rd: Reg::R0,
                imm: 5,
            },
            Inst::Bl { callee: 1 },
            Inst::AddImm {
                rd: Reg::R0,
                rn: Reg::R0,
                imm: 1,
            },
        ]);
        program.functions.push(MachineFunction {
            name: "callee".into(),
            blocks: vec![MachineBlock::new(
                vec![Inst::AddImm {
                    rd: Reg::R0,
                    rn: Reg::R0,
                    imm: 10,
                }],
                Terminator::Return,
            )],
            frame_size: 0,
            num_params: 1,
            is_library: false,
        });
        let decoded = decode(&program).unwrap();
        assert_eq!(decoded.num_chunks(), 3, "main splits at the call");
        let board = Board::stm32vldiscovery();
        let out = decoded
            .execute(&board.power, &board.timing, u64::MAX)
            .unwrap();
        assert_eq!(out.return_value, 16);
        assert_eq!(
            out.profile.call_count(FuncId(1)),
            1,
            "callee counted exactly once"
        );
    }
}
