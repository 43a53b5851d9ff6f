//! Hot-path micro-benchmarks: TLB lookup, the TLB bank, FLC/SLC probe,
//! page-table mapping, and the full per-reference access path, isolated
//! from artifact generation.
//!
//! These track the cost of the struct-of-arrays cache layout and the
//! precomputed per-scheme path tables. Compare against `cargo run -p
//! vcoma-experiments -- bench` (whole-sweep cycles/s) when evaluating a
//! hot-path change: the sweep gives the end-to-end number, these show
//! which layer moved.

#[cfg(feature = "criterion-benches")]
use criterion::{criterion_group, criterion_main, Criterion};
use vcoma::Scheme;
use vcoma_bench::micro;

const TLB_ITERS: u64 = 200_000;
const BANK_ITERS: u64 = 1_000_000;
const CACHE_ITERS: u64 = 200_000;
const MAP_ITERS: u64 = 200_000;
const E2E_REFS: u64 = 20_000;

fn print_artifact() {
    println!("\n=== Hot-path micro checksums ===");
    println!("tlb_lookup({TLB_ITERS}) = {}", micro::tlb_lookup(TLB_ITERS));
    println!("tlb_bank({BANK_ITERS}) = {}", micro::tlb_bank(BANK_ITERS));
    println!("cache_probe({CACHE_ITERS}) = {}", micro::cache_probe(CACHE_ITERS));
    println!("page_table_map({MAP_ITERS}) = {}", micro::page_table_map(MAP_ITERS));
    println!("end_to_end({E2E_REFS}, v_coma) = {}", micro::end_to_end(E2E_REFS, Scheme::V_COMA));
    println!("end_to_end({E2E_REFS}, l0_tlb) = {}", micro::end_to_end(E2E_REFS, Scheme::L0_TLB));
}

#[cfg(feature = "criterion-benches")]
fn bench(c: &mut Criterion) {
    print_artifact();

    let mut g = c.benchmark_group("hotpath_micro");
    g.sample_size(20);
    g.bench_function("tlb_lookup", |b| b.iter(|| micro::tlb_lookup(TLB_ITERS)));
    g.bench_function("tlb_bank", |b| b.iter(|| micro::tlb_bank(BANK_ITERS)));
    g.bench_function("cache_probe", |b| b.iter(|| micro::cache_probe(CACHE_ITERS)));
    g.bench_function("page_table_map", |b| b.iter(|| micro::page_table_map(MAP_ITERS)));
    g.bench_function("access_v_coma", |b| b.iter(|| micro::end_to_end(E2E_REFS, Scheme::V_COMA)));
    g.bench_function("access_l0_tlb", |b| b.iter(|| micro::end_to_end(E2E_REFS, Scheme::L0_TLB)));
    g.finish();
}

#[cfg(feature = "criterion-benches")]
criterion_group!(benches, bench);
#[cfg(feature = "criterion-benches")]
criterion_main!(benches);

#[cfg(not(feature = "criterion-benches"))]
fn main() {
    print_artifact();

    vcoma_bench::plain_bench("hotpath_micro/tlb_lookup", 20, || {
        std::hint::black_box(micro::tlb_lookup(TLB_ITERS));
    });
    vcoma_bench::plain_bench("hotpath_micro/tlb_bank", 20, || {
        std::hint::black_box(micro::tlb_bank(BANK_ITERS));
    });
    vcoma_bench::plain_bench("hotpath_micro/cache_probe", 20, || {
        std::hint::black_box(micro::cache_probe(CACHE_ITERS));
    });
    vcoma_bench::plain_bench("hotpath_micro/page_table_map", 20, || {
        std::hint::black_box(micro::page_table_map(MAP_ITERS));
    });
    vcoma_bench::plain_bench("hotpath_micro/access_v_coma", 20, || {
        std::hint::black_box(micro::end_to_end(E2E_REFS, Scheme::V_COMA));
    });
    vcoma_bench::plain_bench("hotpath_micro/access_l0_tlb", 20, || {
        std::hint::black_box(micro::end_to_end(E2E_REFS, Scheme::L0_TLB));
    });
}
