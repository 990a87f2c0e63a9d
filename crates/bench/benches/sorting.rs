//! Criterion microbenchmarks of the sorting kernels (PARADIS-like vs RADULS-like vs
//! std unstable sort) on k-mer-like 64-bit keys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn keys(n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..n).map(|_| rng.gen()).collect()
}

fn bench_sorts(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort_kernels");
    group.sample_size(10);
    for &n in &[100_000usize, 1_000_000] {
        let input = keys(n);
        group.bench_with_input(
            BenchmarkId::new("paradis_inplace", n),
            &input,
            |b, input| {
                b.iter(|| {
                    let mut v = input.clone();
                    hysortk_sort::paradis_sort_by(&mut v, 8, |x, l| (x >> (8 * (7 - l))) as u8);
                    v
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("raduls_outofplace", n),
            &input,
            |b, input| {
                b.iter(|| {
                    let mut v = input.clone();
                    hysortk_sort::raduls_sort_by(&mut v, 8, |x, l| (x >> (8 * (7 - l))) as u8);
                    v
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("std_unstable", n), &input, |b, input| {
            b.iter(|| {
                let mut v = input.clone();
                v.sort_unstable();
                v
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sorts);
criterion_main!(benches);
