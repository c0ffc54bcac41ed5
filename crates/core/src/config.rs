use std::fmt;

use car_apriori::{CountStrategy, MinConfidence, MinSupport};
use car_cycles::CycleBounds;

/// Configuration shared by every cyclic-rule mining algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MiningConfig {
    /// Per-unit minimum support (fractions apply to each unit's size).
    pub min_support: MinSupport,
    /// Per-unit minimum confidence.
    pub min_confidence: MinConfidence,
    /// Bounds on interesting cycle lengths.
    pub cycle_bounds: CycleBounds,
    /// Optional cap on mined itemset size.
    pub max_itemset_size: Option<usize>,
    /// Support counting engine of SEQUENTIAL's per-unit Apriori (and so
    /// of the parallel and approximate miners, which run its phase 1):
    /// the vertical kernel by default, or the paper-era hash tree that
    /// tests select as an independent oracle. INTERLEAVED and the
    /// sliding window ignore it: they always count on one tid-bitmap
    /// build per unit.
    pub counting: CountStrategy,
}

impl MiningConfig {
    /// Starts building a configuration.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }

    /// Validates the configuration against a database of `num_units`
    /// time units.
    ///
    /// The key requirement is `l_max ≤ num_units`: a cycle longer than
    /// the observation window can never be confirmed or refuted (its
    /// offsets past `num_units` would hold vacuously), and the SEQUENTIAL
    /// and INTERLEAVED algorithms only coincide when every candidate
    /// cycle is observable.
    pub fn validate_for(&self, num_units: usize) -> Result<(), ConfigError> {
        if num_units == 0 {
            return Err(ConfigError::EmptyDatabase);
        }
        if self.cycle_bounds.l_max() as usize > num_units {
            return Err(ConfigError::CycleBoundExceedsUnits {
                l_max: self.cycle_bounds.l_max(),
                num_units,
            });
        }
        Ok(())
    }
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            min_support: MinSupport::Fraction(0.05),
            min_confidence: MinConfidence::new(0.6).expect("valid constant"),
            cycle_bounds: CycleBounds::make(2, 16),
            max_itemset_size: None,
            counting: CountStrategy::Vertical,
        }
    }
}

/// Builder for [`MiningConfig`].
#[derive(Clone, Debug, Default)]
pub struct ConfigBuilder {
    min_support_fraction: Option<f64>,
    min_support_count: Option<u64>,
    min_confidence: Option<f64>,
    cycle_bounds: Option<(u32, u32)>,
    max_itemset_size: Option<usize>,
}

impl ConfigBuilder {
    /// Per-unit minimum support as a fraction of the unit's size.
    pub fn min_support_fraction(mut self, f: f64) -> Self {
        self.min_support_fraction = Some(f);
        self.min_support_count = None;
        self
    }

    /// Per-unit minimum support as an absolute transaction count.
    pub fn min_support_count(mut self, c: u64) -> Self {
        self.min_support_count = Some(c);
        self.min_support_fraction = None;
        self
    }

    /// Per-unit minimum confidence in `[0, 1]`.
    pub fn min_confidence(mut self, f: f64) -> Self {
        self.min_confidence = Some(f);
        self
    }

    /// Cycle length bounds `l_min ..= l_max`.
    pub fn cycle_bounds(mut self, l_min: u32, l_max: u32) -> Self {
        self.cycle_bounds = Some((l_min, l_max));
        self
    }

    /// Caps mined itemset size.
    pub fn max_itemset_size(mut self, k: usize) -> Self {
        self.max_itemset_size = Some(k);
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> Result<MiningConfig, ConfigError> {
        let min_support = if let Some(c) = self.min_support_count {
            MinSupport::count(c)
        } else {
            let f = self.min_support_fraction.unwrap_or(0.05);
            MinSupport::fraction(f).ok_or(ConfigError::InvalidSupport(f))?
        };
        let conf = self.min_confidence.unwrap_or(0.6);
        let min_confidence =
            MinConfidence::new(conf).ok_or(ConfigError::InvalidConfidence(conf))?;
        let (lo, hi) = self.cycle_bounds.unwrap_or((2, 16));
        let cycle_bounds =
            CycleBounds::new(lo, hi).ok_or(ConfigError::InvalidBounds { lo, hi })?;
        Ok(MiningConfig {
            min_support,
            min_confidence,
            cycle_bounds,
            max_itemset_size: self.max_itemset_size,
            counting: CountStrategy::Vertical,
        })
    }
}

/// Configuration and validation errors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// The support fraction was outside `[0, 1]`.
    InvalidSupport(f64),
    /// The confidence was outside `[0, 1]`.
    InvalidConfidence(f64),
    /// The cycle bounds were not `1 ≤ l_min ≤ l_max`.
    InvalidBounds {
        /// Requested lower bound.
        lo: u32,
        /// Requested upper bound.
        hi: u32,
    },
    /// The database has no time units.
    EmptyDatabase,
    /// `l_max` exceeds the number of observed time units.
    CycleBoundExceedsUnits {
        /// Configured maximum cycle length.
        l_max: u32,
        /// Number of time units in the database.
        num_units: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidSupport(x) => {
                write!(f, "minimum support {x} must lie in [0, 1]")
            }
            ConfigError::InvalidConfidence(x) => {
                write!(f, "minimum confidence {x} must lie in [0, 1]")
            }
            ConfigError::InvalidBounds { lo, hi } => {
                write!(f, "cycle bounds [{lo},{hi}] must satisfy 1 <= l_min <= l_max")
            }
            ConfigError::EmptyDatabase => {
                write!(f, "database has no time units")
            }
            ConfigError::CycleBoundExceedsUnits { l_max, num_units } => write!(
                f,
                "maximum cycle length {l_max} exceeds the {num_units} observed time units; \
                 cycles longer than the window are unobservable"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let c = MiningConfig::builder().build().unwrap();
        assert_eq!(c.min_support, MinSupport::Fraction(0.05));
        assert_eq!(c.min_confidence.value(), 0.6);
        assert_eq!(c.cycle_bounds, CycleBounds::make(2, 16));
        assert_eq!(c.max_itemset_size, None);
        assert_eq!(c.counting, CountStrategy::Vertical);
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert_eq!(
            MiningConfig::builder().min_support_fraction(1.5).build(),
            Err(ConfigError::InvalidSupport(1.5))
        );
        assert_eq!(
            MiningConfig::builder().min_confidence(-0.2).build(),
            Err(ConfigError::InvalidConfidence(-0.2))
        );
        assert_eq!(
            MiningConfig::builder().cycle_bounds(5, 2).build(),
            Err(ConfigError::InvalidBounds { lo: 5, hi: 2 })
        );
        assert_eq!(
            MiningConfig::builder().cycle_bounds(0, 2).build(),
            Err(ConfigError::InvalidBounds { lo: 0, hi: 2 })
        );
    }

    #[test]
    fn count_support_overrides_fraction() {
        let c = MiningConfig::builder()
            .min_support_fraction(0.5)
            .min_support_count(3)
            .build()
            .unwrap();
        assert_eq!(c.min_support, MinSupport::Count(3));
    }

    #[test]
    fn validate_for_checks_window() {
        let c = MiningConfig::builder().cycle_bounds(2, 8).build().unwrap();
        assert!(c.validate_for(8).is_ok());
        assert!(c.validate_for(16).is_ok());
        assert_eq!(
            c.validate_for(7),
            Err(ConfigError::CycleBoundExceedsUnits { l_max: 8, num_units: 7 })
        );
        assert_eq!(c.validate_for(0), Err(ConfigError::EmptyDatabase));
    }

    #[test]
    fn error_display() {
        let e = ConfigError::CycleBoundExceedsUnits { l_max: 9, num_units: 4 };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("4"));
    }

    #[test]
    fn partial_eq_for_config_error_handles_floats() {
        assert_eq!(ConfigError::InvalidSupport(0.5), ConfigError::InvalidSupport(0.5));
        assert_ne!(ConfigError::InvalidSupport(0.5), ConfigError::InvalidConfidence(0.5));
    }
}
