//! Criterion microbenchmarks of the classification pipeline's hot paths.
//!
//! These are the operations an AP would run per received frame / per
//! decision, so their cost bounds how many clients one AP can classify.
//! Criterion prints the per-iteration timings; nothing is gated.

use criterion::{BatchSize, Criterion};
use mobisense_core::classifier::{ClassifierConfig, MobilityClassifier};
use mobisense_core::scenario::{Scenario, ScenarioKind};
use mobisense_phy::csi::{csi_similarity, Csi};
use mobisense_util::linalg::CMat;
use mobisense_util::units::MILLISECOND;
use mobisense_util::{DetRng, C64};

fn random_csi(rng: &mut DetRng, n_tx: usize, n_rx: usize, n_sc: usize) -> Csi {
    let mut c = Csi::zeros(n_tx, n_rx, n_sc);
    for i in 0..n_tx {
        for j in 0..n_rx {
            for k in 0..n_sc {
                c.set(i, j, k, rng.complex_gaussian(1.0));
            }
        }
    }
    c
}

fn bench_similarity(c: &mut Criterion) {
    let mut rng = DetRng::seed_from_u64(1);
    let a = random_csi(&mut rng, 3, 2, 52);
    let b = random_csi(&mut rng, 3, 2, 52);
    c.bench_function("csi_similarity_3x2x52", |bench| {
        bench.iter(|| csi_similarity(std::hint::black_box(&a), std::hint::black_box(&b)))
    });
}

fn bench_classifier_step(c: &mut Criterion) {
    let mut rng = DetRng::seed_from_u64(2);
    let frames: Vec<Csi> = (0..64).map(|_| random_csi(&mut rng, 3, 2, 52)).collect();
    c.bench_function("classifier_decision", |bench| {
        bench.iter_batched(
            || MobilityClassifier::new(ClassifierConfig::default()),
            |mut cl| {
                for (i, f) in frames.iter().enumerate() {
                    cl.on_frame_csi(i as u64 * 500 * MILLISECOND, f);
                }
                cl
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_classifier_step_traced(c: &mut Criterion) {
    use mobisense_telemetry::Telemetry;
    let mut rng = DetRng::seed_from_u64(2);
    let frames: Vec<Csi> = (0..64).map(|_| random_csi(&mut rng, 3, 2, 52)).collect();
    // Identical workload to `classifier_decision`, but with a live
    // telemetry capture; `classifier_decision` itself runs the no-op
    // sink, so the pair bounds the instrumentation cost from both
    // sides (no-op must be within 5% of the pre-telemetry baseline;
    // full capture shows the worst case).
    c.bench_function("classifier_decision_traced", |bench| {
        bench.iter_batched(
            || {
                (
                    MobilityClassifier::new(ClassifierConfig::default()),
                    Telemetry::new(),
                )
            },
            |(mut cl, mut tel)| {
                for (i, f) in frames.iter().enumerate() {
                    cl.on_frame_csi_with(i as u64 * 500 * MILLISECOND, f, &mut tel);
                }
                (cl, tel)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_channel_sample(c: &mut Criterion) {
    let mut sc = Scenario::new(ScenarioKind::MacroRandom, 3);
    let mut t = 0u64;
    c.bench_function("scenario_observe", |bench| {
        bench.iter(|| {
            t += 20 * MILLISECOND;
            sc.observe(t)
        })
    });
    // The noiseless ray-channel kernel alone: the part of an
    // observation that fleet generation pays per frame.
    let obs = sc.observe(t + 20 * MILLISECOND);
    let channel = sc.channel();
    c.bench_function("csi_at", |bench| {
        bench.iter(|| {
            std::hint::black_box(channel).csi_at(
                std::hint::black_box(obs.pos),
                std::hint::black_box(obs.heading),
            )
        })
    });
}

fn bench_zf_precoder(c: &mut Criterion) {
    let mut rng = DetRng::seed_from_u64(4);
    let rows: Vec<Vec<C64>> = (0..3)
        .map(|_| (0..3).map(|_| rng.complex_gaussian(1.0)).collect())
        .collect();
    let h = CMat::from_rows(&rows);
    c.bench_function("zf_pinv_3x3", |bench| {
        bench.iter(|| std::hint::black_box(&h).pinv_right())
    });
}

fn main() {
    let mut criterion = Criterion::default().sample_size(20);
    bench_similarity(&mut criterion);
    bench_classifier_step(&mut criterion);
    bench_classifier_step_traced(&mut criterion);
    bench_channel_sample(&mut criterion);
    bench_zf_precoder(&mut criterion);
}
