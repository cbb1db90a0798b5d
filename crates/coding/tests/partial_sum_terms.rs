//! Pins the [`Decoder::partial_sum_terms`] contract: for every builtin
//! scheme, folding the reported `(coefficient, vector)` terms with the
//! serial recurrence reproduces `decode`/`decode_partial` bit-for-bit at
//! every arrival prefix.

use bcc_coding::scheme::test_support::{random_gradients, worker_partials};
use bcc_coding::{
    BccScheme, CyclicMdsScheme, CyclicRepetitionScheme, FractionalRepetitionScheme,
    GeneralizedBccScheme, GradientCodingScheme, RandomSubsetScheme, UncodedScheme,
    UncompressedBccScheme,
};
use bcc_stats::rng::derive_rng;

fn builtin_schemes() -> Vec<Box<dyn GradientCodingScheme>> {
    let (m, n, r) = (10usize, 10usize, 2usize);
    let mut rng = derive_rng(91, 0);
    let bcc = loop {
        let s = BccScheme::new(m, n, r, &mut rng);
        if s.covers_all_batches() {
            break s;
        }
    };
    let bcc_uncompressed = loop {
        let s = UncompressedBccScheme::new(m, n, r, &mut rng);
        if s.covers_all_batches() {
            break s;
        }
    };
    let random = loop {
        let s = RandomSubsetScheme::new(m, n, r, &mut rng);
        if s.placement().covers_all() {
            break s;
        }
    };
    let generalized = GeneralizedBccScheme::new(m, &vec![r; n], &mut rng)
        .expect("generalized BCC coverage with r·n ≥ m");
    vec![
        Box::new(UncodedScheme::new(m, n)),
        Box::new(bcc),
        Box::new(bcc_uncompressed),
        Box::new(random),
        Box::new(generalized),
        Box::new(CyclicRepetitionScheme::new(n, r, &mut rng)),
        Box::new(CyclicMdsScheme::new(n, r)),
        Box::new(FractionalRepetitionScheme::new(n, r)),
    ]
}

/// The exact serial fold the contract names:
/// `out[k] = c₀·v₀[k]; out[k] = vᵢ[k].mul_add(cᵢ, out[k])`.
fn serial_fold(terms: &[(f64, &[f64])]) -> Vec<f64> {
    let (c0, v0) = terms[0];
    let mut out: Vec<f64> = v0.iter().map(|x| c0 * x).collect();
    for &(c, v) in &terms[1..] {
        for (o, x) in out.iter_mut().zip(v) {
            *o = x.mul_add(c, *o);
        }
    }
    out
}

fn assert_bits_eq(label: &str, expected: &[f64], got: &[f64]) {
    assert_eq!(expected.len(), got.len(), "{label}: length mismatch");
    for (k, (e, g)) in expected.iter().zip(got).enumerate() {
        assert_eq!(
            e.to_bits(),
            g.to_bits(),
            "{label}: component {k} differs ({e} vs {g})"
        );
    }
}

#[test]
fn terms_fold_matches_serial_decode_at_every_prefix() {
    for scheme in builtin_schemes() {
        let grads = random_gradients(scheme.num_examples(), 33, 7);
        let mut dec = scheme.decoder();

        assert!(
            dec.partial_sum_terms().is_none(),
            "{}: empty decoder must report no terms",
            scheme.name()
        );

        for worker in 0..scheme.num_workers() {
            if scheme.placement().worker_examples(worker).is_empty() {
                continue;
            }
            let partials = worker_partials(scheme.placement(), worker, &grads);
            let payload = scheme.encode(worker, &partials).expect("encode");
            dec.receive(worker, payload).expect("receive");

            let Some(terms) = dec.partial_sum_terms() else {
                continue;
            };
            let expected = if dec.is_complete() {
                dec.decode().expect("decode when complete")
            } else {
                dec.decode_partial()
                    .expect("partial sum with terms in hand")
            };
            let label = format!(
                "{} after {} messages",
                scheme.name(),
                dec.messages_received()
            );
            assert_bits_eq(&label, &expected, &serial_fold(&terms));
        }
    }
}

#[test]
fn solve_based_decoder_reports_no_terms() {
    let scheme = CyclicMdsScheme::new(10, 2);
    let grads = random_gradients(scheme.num_examples(), 8, 11);
    let mut dec = scheme.decoder();
    for worker in 0..scheme.num_workers() {
        let partials = worker_partials(scheme.placement(), worker, &grads);
        let payload = scheme.encode(worker, &partials).expect("encode");
        dec.receive(worker, payload).expect("receive");
        assert!(
            dec.partial_sum_terms().is_none(),
            "cyclic-MDS decodes via a linear solve; it must opt out of terms"
        );
    }
}

#[test]
fn linear_combination_decoder_reports_terms_only_when_complete() {
    let mut rng = derive_rng(5, 0);
    let scheme = CyclicRepetitionScheme::new(10, 3, &mut rng);
    let grads = random_gradients(scheme.num_examples(), 8, 13);
    let mut dec = scheme.decoder();
    for worker in 0..scheme.num_workers() {
        let partials = worker_partials(scheme.placement(), worker, &grads);
        let payload = scheme.encode(worker, &partials).expect("encode");
        dec.receive(worker, payload).expect("receive");
        assert_eq!(
            dec.partial_sum_terms().is_some(),
            dec.is_complete(),
            "CR terms must appear exactly when the decoding coefficients do"
        );
    }
}
