//! Hot-path micro-benchmarks: op generation, TLB lookup, the TLB bank,
//! FLC/SLC probe, page-table mapping, a coherence transaction, and the
//! full per-reference access path, isolated from artifact generation.
//!
//! These show which layer moved. The end-to-end figure for the same
//! change is the whole-sweep simulated cycles/s that
//! `cargo run --release -p vcoma-experiments -- table2 fig8 --jobs 1`
//! writes to `BENCH_sweep.json`; `scripts/perf_ab.sh` compares it between
//! the parent commit and the head commit.

use vcoma::Scheme;
use vcoma_bench::{micro, plain_bench};

const OP_GEN_OPS: u64 = 200_000;
const TLB_ITERS: u64 = 200_000;
const BANK_ITERS: u64 = 1_000_000;
const CACHE_ITERS: u64 = 200_000;
const MAP_ITERS: u64 = 200_000;
const COHERENCE_ITERS: u64 = 200_000;
const E2E_REFS: u64 = 20_000;

fn main() {
    println!("\n=== Hot-path micro checksums ===");
    println!("op_gen({OP_GEN_OPS}) = {}", micro::op_gen(OP_GEN_OPS));
    println!("tlb_lookup({TLB_ITERS}) = {}", micro::tlb_lookup(TLB_ITERS));
    println!("tlb_bank({BANK_ITERS}) = {}", micro::tlb_bank(BANK_ITERS));
    println!("cache_probe({CACHE_ITERS}) = {}", micro::cache_probe(CACHE_ITERS));
    println!("page_table_map({MAP_ITERS}) = {}", micro::page_table_map(MAP_ITERS));
    println!("coherence_txn({COHERENCE_ITERS}) = {}", micro::coherence_txn(COHERENCE_ITERS));
    println!("end_to_end({E2E_REFS}, v_coma) = {}", micro::end_to_end(E2E_REFS, Scheme::V_COMA));
    println!("end_to_end({E2E_REFS}, l0_tlb) = {}", micro::end_to_end(E2E_REFS, Scheme::L0_TLB));

    plain_bench("hotpath_micro/op_gen", 20, || {
        std::hint::black_box(micro::op_gen(OP_GEN_OPS));
    });
    plain_bench("hotpath_micro/tlb_lookup", 20, || {
        std::hint::black_box(micro::tlb_lookup(TLB_ITERS));
    });
    plain_bench("hotpath_micro/tlb_bank", 20, || {
        std::hint::black_box(micro::tlb_bank(BANK_ITERS));
    });
    plain_bench("hotpath_micro/cache_probe", 20, || {
        std::hint::black_box(micro::cache_probe(CACHE_ITERS));
    });
    plain_bench("hotpath_micro/page_table_map", 20, || {
        std::hint::black_box(micro::page_table_map(MAP_ITERS));
    });
    plain_bench("hotpath_micro/coherence_txn", 20, || {
        std::hint::black_box(micro::coherence_txn(COHERENCE_ITERS));
    });
    plain_bench("hotpath_micro/access_v_coma", 20, || {
        std::hint::black_box(micro::end_to_end(E2E_REFS, Scheme::V_COMA));
    });
    plain_bench("hotpath_micro/access_l0_tlb", 20, || {
        std::hint::black_box(micro::end_to_end(E2E_REFS, Scheme::L0_TLB));
    });
}
