//! SLO priority tiers: per-tenant service classes that shape batch
//! formation.
//!
//! A single `max_wait` knob forces one latency target onto every tenant of a
//! table. Production embedding serving has at least two populations —
//! interactive inference on the critical path and background
//! backfill/training readers — with order-of-magnitude different deadlines.
//! [`SloTiers`] lets a table declare an ordered set of [`SloClass`]es and
//! assign tenants to them. Formation itself is work-conserving (a free
//! replica launches what is queued, see `batcher`), so the tiers decide *who
//! rides* a batch when more is queued than `max_batch` admits, never *when*
//! it launches:
//!
//! * **Background tenants fill residue.** Formation ranks the queue with
//!   [`formation_order`]: deadline-expired entries first (earliest deadline
//!   wins — this is *age promotion*, the anti-starvation rule), then
//!   priority, then arrival order. Whatever capacity the urgent entries
//!   leave in a `max_batch`-sized batch is filled with background entries
//!   already queued, so urgency never wastes device occupancy.
//! * **Background tenants absorb shedding.** When a dispatch queue is at
//!   capacity, an arriving *higher-priority* query displaces the
//!   youngest lowest-priority queued entry (shed with the typed
//!   [`crate::ServeError::Displaced`]) instead of being rejected itself.
//!
//! Starvation is bounded by construction: once a background entry's
//! deadline passes, `formation_order` ranks it ahead of every non-expired
//! urgent entry, so it is selected by the next formation unless it is
//! displaced — and displacement delivers a typed shed, never silence.
//!
//! Tier deadlines must be *non-decreasing with priority number* (priority 0
//! is the most urgent): an "urgent" class with a slacker deadline than a
//! lower tier would invert the meaning of the ranking. [`SloTiers::new`]
//! rejects such configs with [`crate::ServeError::TierInversion`].

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::error::ServeError;

/// One service class: the latency target and scheduling rank its tenants
/// get.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloClass {
    /// Human-readable tier name, used in config assignments and telemetry
    /// labels.
    pub name: String,
    /// Promotion age: an entry of this class still queued this long after
    /// it was enqueued outranks every fresh entry at formation.
    pub deadline: Duration,
    /// Scheduling rank; 0 is the most urgent. Lower priority numbers win
    /// residue slots and displace higher numbers when a queue is full.
    pub priority: u8,
}

impl SloClass {
    /// Construct a class.
    #[must_use]
    pub fn new(name: &str, deadline: Duration, priority: u8) -> Self {
        Self {
            name: name.to_string(),
            deadline,
            priority,
        }
    }
}

/// A table's ordered tier set plus its tenant assignments.
///
/// Built through [`crate::TableConfigBuilder`] (or [`SloTiers::new`] for
/// standalone use); construction validates the set, so a held value is
/// always internally consistent: classes sorted by ascending priority,
/// unique names and priorities, deadlines non-decreasing with priority.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloTiers {
    classes: Vec<SloClass>,
    /// tenant name → index into `classes`.
    assignments: HashMap<String, usize>,
    default_tier: usize,
}

impl SloTiers {
    /// Validate and build a tier set.
    ///
    /// `assignments` maps tenant names to class names; `default_tier` names
    /// the class unassigned tenants fall into.
    ///
    /// # Errors
    ///
    /// * [`ServeError::TierInversion`] — a higher-priority class has a
    ///   *longer* deadline than a more urgent one (deadlines must be
    ///   non-decreasing with priority number).
    /// * [`ServeError::InvalidConfig`] — empty class list, duplicate names
    ///   or priorities, a zero deadline, or an assignment/default naming an
    ///   undeclared class.
    pub fn new(
        classes: Vec<SloClass>,
        assignments: &[(String, String)],
        default_tier: &str,
    ) -> Result<Self, ServeError> {
        if classes.is_empty() {
            return Err(ServeError::InvalidConfig(
                "tier set must declare at least one class".into(),
            ));
        }
        let mut classes = classes;
        classes.sort_by_key(|class| class.priority);
        for pair in classes.windows(2) {
            let [previous, class] = pair else {
                continue;
            };
            if class.priority == previous.priority {
                return Err(ServeError::InvalidConfig(format!(
                    "tiers '{}' and '{}' share priority {}",
                    previous.name, class.name, class.priority
                )));
            }
            if class.deadline < previous.deadline {
                return Err(ServeError::TierInversion {
                    tier: class.name.clone(),
                    deadline: class.deadline,
                    previous_tier: previous.name.clone(),
                    previous_deadline: previous.deadline,
                });
            }
        }
        let mut by_name: HashMap<String, usize> = HashMap::new();
        for (index, class) in classes.iter().enumerate() {
            if class.name.is_empty() {
                return Err(ServeError::InvalidConfig(
                    "tier names must be non-empty".into(),
                ));
            }
            if class.deadline.is_zero() {
                return Err(ServeError::InvalidConfig(format!(
                    "tier '{}' has a zero deadline",
                    class.name
                )));
            }
            if by_name.insert(class.name.clone(), index).is_some() {
                return Err(ServeError::InvalidConfig(format!(
                    "duplicate tier name '{}'",
                    class.name
                )));
            }
        }
        let resolve = |name: &str| -> Result<usize, ServeError> {
            by_name.get(name).copied().ok_or_else(|| {
                ServeError::InvalidConfig(format!("unknown tier '{name}' referenced"))
            })
        };
        let default_tier = resolve(default_tier)?;
        let assignments = assignments
            .iter()
            .map(|(tenant, tier)| Ok((tenant.clone(), resolve(tier)?)))
            .collect::<Result<HashMap<_, _>, ServeError>>()?;
        Ok(Self {
            classes,
            assignments,
            default_tier,
        })
    }

    /// The single-class tier set every table without explicit tiers gets:
    /// one class named `default` whose deadline is the batch policy's
    /// `max_wait` — which makes tier-aware formation degenerate to exact
    /// FIFO.
    #[must_use]
    pub fn single(deadline: Duration) -> Self {
        Self {
            classes: vec![SloClass::new(
                "default",
                deadline.max(Duration::from_nanos(1)),
                0,
            )],
            assignments: HashMap::new(),
            default_tier: 0,
        }
    }

    /// The classes, sorted by ascending priority number (most urgent
    /// first).
    #[must_use]
    pub fn classes(&self) -> &[SloClass] {
        &self.classes
    }

    /// The tier index `tenant` is served under.
    #[must_use]
    pub fn tier_of(&self, tenant: &str) -> usize {
        self.assignments
            .get(tenant)
            .copied()
            .unwrap_or(self.default_tier)
    }

    /// The class at `tier`, clamped to the default class if out of range
    /// (cannot happen for indices produced by [`Self::tier_of`]).
    #[must_use]
    pub fn class(&self, tier: usize) -> &SloClass {
        self.classes
            .get(tier)
            .or_else(|| self.classes.get(self.default_tier))
            .unwrap_or(&FALLBACK_CLASS)
    }

    /// Number of declared classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the set is the degenerate single-class one.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

impl Default for SloTiers {
    fn default() -> Self {
        Self::single(crate::config::BatchPolicy::default().max_wait)
    }
}

/// The statically-known fallback [`SloTiers::class`] resolves to if its
/// invariants were ever violated; keeps the accessor total without a panic
/// path.
static FALLBACK_CLASS: SloClass = SloClass {
    name: String::new(),
    deadline: Duration::from_millis(2),
    priority: 0,
};

/// One queued entry as the formation ranker sees it.
#[derive(Clone, Copy, Debug)]
pub struct BatchCandidate {
    /// Absolute deadline (`enqueued_at + class.deadline`).
    pub deadline: Instant,
    /// The entry's class priority (0 = most urgent).
    pub priority: u8,
}

/// Rank queued candidates for batch formation; returns candidate indices in
/// pick order.
///
/// The ordering implements both tier promises at once:
///
/// 1. **Expired entries first, earliest deadline first.** An entry whose
///    deadline has passed — however lowly its tier — outranks every
///    non-expired entry. This is the *age promotion* that bounds
///    background starvation: a background entry is picked at the latest by
///    the first formation after its deadline expires.
/// 2. **Then priority, then arrival order.** Residue capacity goes to the
///    most urgent classes; within a class, FIFO (candidate index order is
///    queue order).
///
/// With a single class (every candidate the same priority, deadlines in
/// arrival order) this degenerates to exact FIFO, so untiered tables form
/// identical batches to the pre-tier batcher.
#[must_use]
pub fn formation_order(now: Instant, candidates: &[BatchCandidate]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| {
        let (ca, cb) = (&candidates[a], &candidates[b]);
        let (expired_a, expired_b) = (ca.deadline <= now, cb.deadline <= now);
        // Expired before fresh.
        expired_b
            .cmp(&expired_a)
            .then_with(|| {
                if expired_a && expired_b {
                    // Both expired: most overdue first.
                    ca.deadline.cmp(&cb.deadline)
                } else {
                    // Both fresh: most urgent class first.
                    ca.priority.cmp(&cb.priority)
                }
            })
            // FIFO within every equivalence class.
            .then_with(|| a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiers() -> SloTiers {
        SloTiers::new(
            vec![
                SloClass::new("background", Duration::from_millis(50), 2),
                SloClass::new("interactive", Duration::from_millis(2), 0),
                SloClass::new("standard", Duration::from_millis(10), 1),
            ],
            &[
                ("alice".to_string(), "interactive".to_string()),
                ("batch-loader".to_string(), "background".to_string()),
            ],
            "standard",
        )
        .unwrap()
    }

    #[test]
    fn classes_sort_by_priority_and_assignments_resolve() {
        let tiers = tiers();
        let names: Vec<&str> = tiers.classes().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["interactive", "standard", "background"]);
        assert_eq!(tiers.class(tiers.tier_of("alice")).name, "interactive");
        assert_eq!(
            tiers.class(tiers.tier_of("batch-loader")).name,
            "background"
        );
        assert_eq!(tiers.class(tiers.tier_of("unknown")).name, "standard");
        assert_eq!(tiers.len(), 3);
        assert!(!tiers.is_empty());
        // Out-of-range tier indices degrade to the default class.
        assert_eq!(tiers.class(99).name, "standard");
    }

    #[test]
    fn deadline_inversion_is_a_typed_error() {
        let err = SloTiers::new(
            vec![
                SloClass::new("interactive", Duration::from_millis(20), 0),
                SloClass::new("background", Duration::from_millis(5), 1),
            ],
            &[],
            "interactive",
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::TierInversion { .. }));
        let message = err.to_string();
        assert!(message.contains("background"), "{message}");
        assert!(message.contains("interactive"), "{message}");
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        assert!(SloTiers::new(vec![], &[], "x").is_err());
        // Duplicate priorities.
        assert!(SloTiers::new(
            vec![
                SloClass::new("a", Duration::from_millis(1), 0),
                SloClass::new("b", Duration::from_millis(2), 0),
            ],
            &[],
            "a",
        )
        .is_err());
        // Duplicate names.
        assert!(SloTiers::new(
            vec![
                SloClass::new("a", Duration::from_millis(1), 0),
                SloClass::new("a", Duration::from_millis(2), 1),
            ],
            &[],
            "a",
        )
        .is_err());
        // Zero deadline.
        assert!(SloTiers::new(vec![SloClass::new("a", Duration::ZERO, 0)], &[], "a").is_err());
        // Unknown default / assignment targets.
        let class = vec![SloClass::new("a", Duration::from_millis(1), 0)];
        assert!(SloTiers::new(class.clone(), &[], "ghost").is_err());
        assert!(SloTiers::new(class, &[("tenant".to_string(), "ghost".to_string())], "a").is_err());
    }

    #[test]
    fn single_class_order_is_fifo() {
        let now = Instant::now();
        let candidates: Vec<BatchCandidate> = (0..8)
            .map(|i| BatchCandidate {
                deadline: now + Duration::from_millis(10 + i),
                priority: 0,
            })
            .collect();
        assert_eq!(
            formation_order(now, &candidates),
            (0..8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn expired_entries_outrank_urgent_fresh_ones() {
        let now = Instant::now();
        let candidates = vec![
            // Fresh interactive entry.
            BatchCandidate {
                deadline: now + Duration::from_millis(2),
                priority: 0,
            },
            // Expired background entry (age promotion must win).
            BatchCandidate {
                deadline: now - Duration::from_millis(1),
                priority: 2,
            },
            // Fresh background entry.
            BatchCandidate {
                deadline: now + Duration::from_millis(50),
                priority: 2,
            },
            // Longer-expired background entry: most overdue first.
            BatchCandidate {
                deadline: now - Duration::from_millis(9),
                priority: 2,
            },
        ];
        assert_eq!(formation_order(now, &candidates), vec![3, 1, 0, 2]);
    }

    #[test]
    fn fresh_entries_rank_by_priority_then_arrival() {
        let now = Instant::now();
        let deadline = |ms: u64| now + Duration::from_millis(ms);
        let candidates = vec![
            BatchCandidate {
                deadline: deadline(50),
                priority: 2,
            },
            BatchCandidate {
                deadline: deadline(2),
                priority: 0,
            },
            BatchCandidate {
                deadline: deadline(50),
                priority: 2,
            },
            BatchCandidate {
                deadline: deadline(2),
                priority: 0,
            },
        ];
        assert_eq!(formation_order(now, &candidates), vec![1, 3, 0, 2]);
    }
}
