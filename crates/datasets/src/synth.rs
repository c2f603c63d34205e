//! Synthetic classification-task generator.
//!
//! Stand-in for the paper's real benchmarks, whose claims depend on a
//! task's feature count, class count and value range rather than on its
//! particular samples. Each class gets a random prototype in `[0,1]^N`;
//! samples are the prototype plus Gaussian noise, clipped back to
//! `[0,1]`. The resulting task has
//! the same feature count, class count and value range as the original
//! dataset, is learnable by an HDC model to accuracies in the paper's
//! band, and is fully deterministic given a seed.

use hypervec::HvRng;
use serde::{Deserialize, Serialize};

use crate::error::DataError;
use crate::schema::{Dataset, Sample};

/// Recipe for one synthetic classification dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthSpec {
    /// Dataset name (e.g. `"mnist-synth"`).
    pub name: String,
    /// Feature count `N`.
    pub n_features: usize,
    /// Class count `C`.
    pub n_classes: usize,
    /// Training-set size.
    pub train_size: usize,
    /// Test-set size.
    pub test_size: usize,
    /// Gaussian noise σ added around class prototypes. Larger σ makes
    /// the task harder.
    pub noise: f64,
    /// Fraction of features that are pure noise (carry no class signal),
    /// emulating uninformative pixels/channels in the real benchmarks.
    pub distractor_fraction: f64,
    /// How far class prototypes deviate from a shared backbone, in
    /// `[0, 1]`: each informative feature's prototype is
    /// `(1 − β)·shared + β·class_unique`. Small β makes classes overlap
    /// (harder task); β = 1 gives fully independent prototypes. This is
    /// the main knob calibrating HDC accuracy into the paper's
    /// 0.80–0.94 band.
    pub class_distinctness: f64,
}

impl SynthSpec {
    /// Convenience constructor with no distractor features.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        n_features: usize,
        n_classes: usize,
        train_size: usize,
        test_size: usize,
        noise: f64,
    ) -> Self {
        SynthSpec {
            name: name.into(),
            n_features,
            n_classes,
            train_size,
            test_size,
            noise,
            distractor_fraction: 0.0,
            class_distinctness: 1.0,
        }
    }

    /// Returns a copy with train/test sizes multiplied by `scale`
    /// (clamped so each side keeps at least one sample per class).
    #[must_use]
    pub fn scaled(&self, scale: f64) -> Self {
        let scale = scale.max(0.0);
        let min = self.n_classes;
        SynthSpec {
            train_size: ((self.train_size as f64 * scale) as usize).max(min),
            test_size: ((self.test_size as f64 * scale) as usize).max(min),
            ..self.clone()
        }
    }

    /// Generates the train and test datasets for this spec.
    ///
    /// Both splits share the class prototypes (drawn first) so they
    /// describe the same underlying task.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] if the spec asks for zero samples,
    /// features or classes.
    pub fn generate(&self, rng: &mut HvRng) -> Result<(Dataset, Dataset), DataError> {
        if self.n_features == 0
            || self.n_classes == 0
            || self.train_size == 0
            || self.test_size == 0
        {
            return Err(DataError::Empty);
        }
        let beta = self.class_distinctness.clamp(0.0, 1.0);
        let shared: Vec<f64> = (0..self.n_features).map(|_| rng.unit_f64()).collect();
        let prototypes: Vec<Vec<f64>> = (0..self.n_classes)
            .map(|_| {
                (0..self.n_features)
                    .map(|j| (1.0 - beta) * shared[j] + beta * rng.unit_f64())
                    .collect()
            })
            .collect();
        let distractor: Vec<bool> = (0..self.n_features)
            .map(|_| rng.unit_f64() < self.distractor_fraction)
            .collect();
        let train = self.sample_split("train", &prototypes, &distractor, self.train_size, rng)?;
        let test = self.sample_split("test", &prototypes, &distractor, self.test_size, rng)?;
        Ok((train, test))
    }

    fn sample_split(
        &self,
        split: &str,
        prototypes: &[Vec<f64>],
        distractor: &[bool],
        count: usize,
        rng: &mut HvRng,
    ) -> Result<Dataset, DataError> {
        let mut samples = Vec::with_capacity(count);
        for i in 0..count {
            // Round-robin labels guarantee class balance in every split.
            let label = i % self.n_classes;
            let proto = &prototypes[label];
            let features: Vec<f32> = (0..self.n_features)
                .map(|j| {
                    let center = if distractor[j] {
                        rng.unit_f64()
                    } else {
                        proto[j]
                    };
                    let v = center + self.noise * rng.normal();
                    v.clamp(0.0, 1.0) as f32
                })
                .collect();
            samples.push(Sample { features, label });
        }
        Dataset::new(format!("{}-{split}", self.name), self.n_classes, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SynthSpec {
        SynthSpec::new("unit", 20, 4, 40, 16, 0.1)
    }

    #[test]
    fn generates_requested_shapes() {
        let mut rng = HvRng::from_seed(1);
        let (train, test) = spec().generate(&mut rng).unwrap();
        assert_eq!(train.len(), 40);
        assert_eq!(test.len(), 16);
        assert_eq!(train.n_features(), 20);
        assert_eq!(train.n_classes(), 4);
        assert_eq!(test.name(), "unit-test");
    }

    #[test]
    fn splits_are_class_balanced() {
        let mut rng = HvRng::from_seed(2);
        let (train, _) = spec().generate(&mut rng).unwrap();
        assert_eq!(train.class_counts(), vec![10, 10, 10, 10]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = spec().generate(&mut HvRng::from_seed(7)).unwrap();
        let (b, _) = spec().generate(&mut HvRng::from_seed(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = spec().generate(&mut HvRng::from_seed(7)).unwrap();
        let (b, _) = spec().generate(&mut HvRng::from_seed(8)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn values_stay_in_unit_interval() {
        let mut rng = HvRng::from_seed(3);
        let mut s = spec();
        s.noise = 2.0; // extreme noise must still clamp
        let (train, _) = s.generate(&mut rng).unwrap();
        for sample in &train {
            for &v in &sample.features {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn same_class_samples_are_closer_than_cross_class() {
        let mut rng = HvRng::from_seed(4);
        let (train, _) = SynthSpec::new("sep", 50, 2, 100, 10, 0.1)
            .generate(&mut rng)
            .unwrap();
        let dist = |a: &[f32], b: &[f32]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| ((x - y) as f64).powi(2))
                .sum::<f64>()
        };
        let s = train.samples();
        let mut within = 0.0;
        let mut across = 0.0;
        let mut n_within = 0;
        let mut n_across = 0;
        for i in 0..30 {
            for j in (i + 1)..30 {
                let d = dist(&s[i].features, &s[j].features);
                if s[i].label == s[j].label {
                    within += d;
                    n_within += 1;
                } else {
                    across += d;
                    n_across += 1;
                }
            }
        }
        assert!((within / n_within as f64) < (across / n_across as f64));
    }

    #[test]
    fn scaled_respects_minimums() {
        let s = spec().scaled(0.0);
        assert_eq!(s.train_size, 4);
        assert_eq!(s.test_size, 4);
        let s = spec().scaled(0.5);
        assert_eq!(s.train_size, 20);
    }

    #[test]
    fn zero_sizes_rejected() {
        let mut s = spec();
        s.train_size = 0;
        assert!(matches!(
            s.generate(&mut HvRng::from_seed(0)),
            Err(DataError::Empty)
        ));
    }
}
