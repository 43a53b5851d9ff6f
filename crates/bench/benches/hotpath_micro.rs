//! Hot-path micro-benchmarks: op generation, TLB lookup, the TLB bank,
//! FLC/SLC probe, attraction-memory probes at paper scale, page-table
//! mapping, a coherence transaction, a
//! paper-scale directory fill, the full per-reference access path, the
//! replay loop at paper scale, and the store codec's encode plus decode,
//! isolated from artifact generation.
//!
//! These show which layer moved. The end-to-end figure for the same
//! change is the whole-sweep simulated references/s that
//! `cargo run --release -p vcoma-experiments -- table2 fig8 --jobs 1`
//! writes to `BENCH_sweep.json`; `scripts/perf_ab.sh` compares it between
//! the parent commit and the head commit.

use vcoma::Scheme;
use vcoma_bench::{micro, plain_bench, plain_bench_fresh};

const OP_GEN_OPS: u64 = 200_000;
const TLB_ITERS: u64 = 200_000;
const BANK_ITERS: u64 = 1_000_000;
const CACHE_ITERS: u64 = 200_000;
const AM_ITERS: u64 = 1_000_000;
const MAP_ITERS: u64 = 200_000;
const COHERENCE_ITERS: u64 = 200_000;
const DIRECTORY_BLOCKS: u64 = 100_000;
const E2E_REFS: u64 = 20_000;
const REPLAY_REFS: u64 = 20_000;
const CODEC_ITERS: u64 = 100;

fn main() {
    println!("\n=== Hot-path micro checksums ===");
    println!("op_gen({OP_GEN_OPS}) = {}", micro::op_gen(OP_GEN_OPS));
    println!("tlb_lookup({TLB_ITERS}) = {}", micro::tlb_lookup(TLB_ITERS));
    println!("tlb_bank({BANK_ITERS}) = {}", micro::tlb_bank(BANK_ITERS));
    println!("cache_probe({CACHE_ITERS}) = {}", micro::cache_probe(CACHE_ITERS));
    println!("am_probe({AM_ITERS}) = {}", micro::am_probe(&mut micro::am_arrays(), AM_ITERS));
    println!("page_table_map({MAP_ITERS}) = {}", micro::page_table_map(MAP_ITERS));
    println!("coherence_txn({COHERENCE_ITERS}) = {}", micro::coherence_txn(COHERENCE_ITERS));
    println!(
        "directory_fill({DIRECTORY_BLOCKS}) = {}",
        micro::directory_fill(&mut micro::directory_protocol(), DIRECTORY_BLOCKS)
    );
    println!("end_to_end({E2E_REFS}, v_coma) = {}", micro::end_to_end(E2E_REFS, Scheme::V_COMA));
    println!("end_to_end({E2E_REFS}, l0_tlb) = {}", micro::end_to_end(E2E_REFS, Scheme::L0_TLB));
    println!("replay_paper({REPLAY_REFS}) = {}", micro::replay_paper(REPLAY_REFS));
    let report = micro::codec_report();
    println!("codec_roundtrip({CODEC_ITERS}) = {}", micro::codec_roundtrip(&report, CODEC_ITERS));

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
    let mut ams = micro::am_arrays();
    plain_bench("hotpath_micro/am_probe", 20, || {
        std::hint::black_box(micro::am_probe(&mut ams, AM_ITERS));
    });
    plain_bench("hotpath_micro/page_table_map", 20, || {
        std::hint::black_box(micro::page_table_map(MAP_ITERS));
    });
    plain_bench("hotpath_micro/coherence_txn", 20, || {
        std::hint::black_box(micro::coherence_txn(COHERENCE_ITERS));
    });
    plain_bench_fresh("hotpath_micro/directory_fill", 20, micro::directory_protocol, |p| {
        std::hint::black_box(micro::directory_fill(p, DIRECTORY_BLOCKS));
    });
    plain_bench("hotpath_micro/access_v_coma", 20, || {
        std::hint::black_box(micro::end_to_end(E2E_REFS, Scheme::V_COMA));
    });
    plain_bench("hotpath_micro/access_l0_tlb", 20, || {
        std::hint::black_box(micro::end_to_end(E2E_REFS, Scheme::L0_TLB));
    });
    plain_bench("hotpath_micro/replay_paper", 20, || {
        std::hint::black_box(micro::replay_paper(REPLAY_REFS));
    });
    plain_bench("hotpath_micro/codec_roundtrip", 20, || {
        std::hint::black_box(micro::codec_roundtrip(&report, CODEC_ITERS));
    });
}
