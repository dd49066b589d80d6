//! Criterion microbenchmarks of the hot kernels underneath the figures:
//! one NEMU fast-loop slice, one softfloat FMA, one TAGE prediction, and
//! one coherent-cache round trip. These complement the table/figure
//! harnesses with statistically sampled timings.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn nemu_slice(c: &mut Criterion) {
    let w = workloads::workload("hmmer", workloads::Scale::Ref);
    c.bench_function("nemu_run_100k_insts", |b| {
        use nemu::Interpreter;
        let mut n = nemu::NemuTrace::new(&w.program);
        n.run(1_000); // warm the trace buffers
        b.iter(|| {
            if n.hart().is_halted() {
                n = nemu::NemuTrace::new(&w.program);
            }
            black_box(n.run(100_000).instructions)
        })
    });
}

fn softfloat_fma(c: &mut Criterion) {
    c.bench_function("softfloat_fma64", |b| {
        let (x, y, z) = (1.000000073f64.to_bits(), 0.99999918f64.to_bits(), (-1.0f64).to_bits());
        b.iter(|| black_box(riscv_isa::softfloat::fma64(black_box(x), black_box(y), black_box(z))))
    });
    c.bench_function("host_fma64_reference", |b| {
        let (x, y, z) = (1.000000073f64, 0.99999918f64, -1.0f64);
        b.iter(|| black_box(black_box(x).mul_add(black_box(y), black_box(z))))
    });
}

fn tage_predict(c: &mut Criterion) {
    let mut t = xscore::tage::TageSc::new(4096);
    // Train on a loop pattern first.
    let mut g = 0u64;
    for i in 0..10_000u64 {
        let p = t.predict(0x8000_1234, g);
        let taken = i % 7 != 6;
        t.update(0x8000_1234, p, taken);
        g = (g << 1) | taken as u64;
    }
    c.bench_function("tage_predict", |b| {
        b.iter(|| black_box(t.predict(black_box(0x8000_1234), black_box(g))))
    });
}

fn cache_round_trip(c: &mut Criterion) {
    use riscv_isa::mem::SparseMemory;
    use uncore::{AccessKind, CoreReq, DramModel, MemSystem, MemSystemConfig};
    c.bench_function("l1_hit_load", |b| {
        let mut sys = MemSystem::new(MemSystemConfig::tiny(1), DramModel::fixed(20), SparseMemory::new());
        // Warm the line.
        let warm = CoreReq { core: 0, kind: AccessKind::Load, addr: 0x1000, size: 8, data: 0, id: 0 };
        sys.submit_data(warm);
        for _ in 0..200 {
            sys.tick();
        }
        let mut id = 1u64;
        b.iter(|| {
            id += 1;
            let req = CoreReq { core: 0, kind: AccessKind::Load, addr: 0x1000, size: 8, data: 0, id };
            sys.submit_data(req);
            loop {
                if sys.tick().iter().any(|c| c.req.id == id) {
                    break;
                }
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = nemu_slice, softfloat_fma, tage_predict, cache_round_trip
}
criterion_main!(benches);
