//! Beyond record-based encoding: n-gram sequence classification with
//! the same hypervector substrate — and why its item memory has the
//! same IP-leak surface the paper describes.
//!
//! Two synthetic "languages" (Markov chains over a 12-symbol alphabet)
//! are classified by bundling n-gram hypervectors per class.
//!
//! ```text
//! cargo run --release --example sequence_ngram
//! ```

use hdc_model::NgramEncoder;
use hypervec::{BundleAccumulator, HvRng};

/// Generates a sequence from a class-specific first-order Markov chain.
fn generate_sequence(rng: &mut HvRng, class: usize, len: usize, alphabet: usize) -> Vec<usize> {
    let mut seq = Vec::with_capacity(len);
    let mut state = rng.index(alphabet);
    for _ in 0..len {
        seq.push(state);
        // class 0 walks forward, class 1 hops by 5 — different n-gram
        // statistics, same marginal symbol distribution
        let step = if class == 0 { 1 } else { 5 };
        state = if rng.unit_f64() < 0.8 {
            (state + step) % alphabet
        } else {
            rng.index(alphabet)
        };
    }
    seq
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let alphabet = 12;
    let dim = 4096;
    let mut rng = HvRng::from_seed(2022);
    let encoder = NgramEncoder::generate(&mut rng, alphabet, 3, dim)?;

    // Train: bundle 40 sequences per class.
    let mut classes = [BundleAccumulator::new(dim), BundleAccumulator::new(dim)];
    for (class, acc) in classes.iter_mut().enumerate() {
        for _ in 0..40 {
            let seq = generate_sequence(&mut rng, class, 64, alphabet);
            acc.add(&encoder.encode_sequence(&seq)?);
        }
    }
    let class_hvs = [
        classes[0].majority_ties_positive(),
        classes[1].majority_ties_positive(),
    ];

    // Test: 100 fresh sequences.
    let mut correct = 0;
    let total = 100;
    for t in 0..total {
        let class = t % 2;
        let seq = generate_sequence(&mut rng, class, 64, alphabet);
        let q = encoder.encode_sequence(&seq)?;
        let predicted = usize::from(class_hvs[1].hamming(&q) < class_hvs[0].hamming(&q));
        if predicted == class {
            correct += 1;
        }
    }
    println!("n-gram sequence classifier: {correct}/{total} correct");
    println!(
        "\nnote: the symbol item memory ({} hypervectors) sits in plain memory exactly\n\
         like record-based feature HVs — an HDLock-style derived item memory applies\n\
         here unchanged.",
        encoder.alphabet()
    );
    Ok(())
}
