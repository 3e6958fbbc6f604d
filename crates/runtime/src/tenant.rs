//! Multi-tenant admission: tenant identity, per-tenant service weights and
//! in-flight quotas, and the registry that enforces them.
//!
//! Every [`crate::job::JobSpec`] names a [`Tenant`]; specs from pre-tenant
//! JSONL workloads (no `tenant` key) deserialize as [`Tenant::DEFAULT`], so
//! old replay files keep working unchanged. The admission queue schedules
//! *between* tenants with deficit-weighted round-robin (see
//! [`crate::queue::AdmissionQueue`]); this module owns the per-tenant
//! *admission* side: an in-flight cap (queued + running jobs) that rejects
//! excess submissions with quota backpressure — a per-tenant signal,
//! deliberately distinct from the global queue-full rejection.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A tenant name — the multi-tenant routing and accounting key.
///
/// Wire format is a plain JSON string; an absent field reads as
/// [`Tenant::DEFAULT`] (the same backcompat precedent as `PlanMode` and
/// `Replicas`). Names are free-form but must be non-empty.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tenant(String);

impl Tenant {
    /// The tenant every pre-tenant workload maps to.
    pub const DEFAULT: &'static str = "default";

    /// A tenant with the given name (empty names collapse to the default).
    pub fn new(name: &str) -> Tenant {
        if name.is_empty() {
            Tenant(Tenant::DEFAULT.to_string())
        } else {
            Tenant(name.to_string())
        }
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl Default for Tenant {
    fn default() -> Self {
        Tenant(Tenant::DEFAULT.to_string())
    }
}

impl std::fmt::Display for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Serialize for Tenant {
    fn to_value(&self) -> Value {
        Value::Str(self.0.clone())
    }
}

impl Deserialize for Tenant {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Null => Ok(Tenant::default()),
            Value::Str(s) if !s.is_empty() => Ok(Tenant(s.clone())),
            Value::Str(_) => Err(serde::Error::custom("tenant must be a non-empty string")),
            _ => Err(serde::Error::custom("tenant must be a string")),
        }
    }

    // Absence opts in to the single-tenant default — old JSONL workloads
    // predate the field.
    fn absent() -> Option<Self> {
        Some(Tenant::default())
    }
}

/// Per-tenant service parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// DWRR service weight: a tenant with weight `2w` accrues scheduling
    /// credit twice as fast as one with weight `w`. Must be >= 1.
    pub weight: u64,
    /// In-flight cap (jobs queued or running at once); `0` = unlimited.
    /// Submissions beyond the cap are rejected with quota backpressure.
    pub max_in_flight: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            max_in_flight: 0,
        }
    }
}

/// The runtime's tenant policy: a default config plus per-tenant overrides.
#[derive(Debug, Clone, Default)]
pub struct TenantPolicy {
    /// Config applied to tenants without an explicit override.
    pub default: TenantConfig,
    /// Per-tenant overrides, keyed by tenant name.
    pub overrides: BTreeMap<String, TenantConfig>,
}

impl TenantPolicy {
    /// The effective config for `tenant`.
    pub fn config_for(&self, tenant: &Tenant) -> TenantConfig {
        self.overrides
            .get(tenant.name())
            .copied()
            .unwrap_or(self.default)
    }
}

/// Live admission accounting for one tenant.
#[derive(Debug, Default)]
struct TenantState {
    config: TenantConfig,
    in_flight: usize,
    in_flight_high_water: usize,
    admitted: u64,
    rejected_quota: u64,
}

/// Point-in-time view of one tenant's admission accounting, for the serve
/// report's fairness section.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub tenant: String,
    /// Effective DWRR weight.
    pub weight: u64,
    /// Effective in-flight cap (0 = unlimited).
    pub max_in_flight: usize,
    /// Jobs this tenant got past admission (queue push succeeded).
    pub admitted: u64,
    /// Submissions rejected because the tenant was at its in-flight cap.
    pub rejected_quota: u64,
    /// Highest concurrent in-flight count ever observed.
    pub in_flight_high_water: usize,
}

/// Tracks per-tenant in-flight counts and enforces quotas. One instance
/// serves the whole runtime; shards release slots as jobs reach terminal
/// outcomes.
#[derive(Debug)]
pub struct TenantRegistry {
    policy: TenantPolicy,
    states: Mutex<BTreeMap<Tenant, TenantState>>,
}

/// Why a tenant-level admission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuotaExceeded {
    /// The tenant that hit its cap.
    pub tenant: Tenant,
    /// The cap it hit.
    pub max_in_flight: usize,
}

impl TenantRegistry {
    /// A registry enforcing `policy`.
    pub fn new(policy: TenantPolicy) -> TenantRegistry {
        TenantRegistry {
            policy,
            states: Mutex::new(BTreeMap::new()),
        }
    }

    /// The DWRR weight for `tenant` under this registry's policy.
    pub fn weight(&self, tenant: &Tenant) -> u64 {
        self.policy.config_for(tenant).weight.max(1)
    }

    /// Claims one in-flight slot for `tenant`, creating its state on first
    /// sight.
    ///
    /// # Errors
    /// [`QuotaExceeded`] when the tenant is at its in-flight cap; no slot
    /// is claimed.
    pub fn try_admit(&self, tenant: &Tenant) -> Result<(), QuotaExceeded> {
        let mut states = self.states.lock().unwrap();
        let st = states.entry(tenant.clone()).or_insert_with(|| TenantState {
            config: self.policy.config_for(tenant),
            ..TenantState::default()
        });
        let cap = st.config.max_in_flight;
        if cap > 0 && st.in_flight >= cap {
            st.rejected_quota += 1;
            return Err(QuotaExceeded {
                tenant: tenant.clone(),
                max_in_flight: cap,
            });
        }
        st.in_flight += 1;
        st.in_flight_high_water = st.in_flight_high_water.max(st.in_flight);
        st.admitted += 1;
        Ok(())
    }

    /// Releases one in-flight slot (terminal outcome, or a queue push that
    /// failed after the slot was claimed). The claim is rolled back fully
    /// in the failure case: `admitted` is decremented too, so the counter
    /// only ever counts jobs that truly entered the queue.
    pub fn release(&self, tenant: &Tenant, admitted: bool) {
        let mut states = self.states.lock().unwrap();
        if let Some(st) = states.get_mut(tenant) {
            st.in_flight = st.in_flight.saturating_sub(1);
            if !admitted {
                st.admitted = st.admitted.saturating_sub(1);
            }
        }
    }

    /// Current in-flight count for `tenant`.
    pub fn in_flight(&self, tenant: &Tenant) -> usize {
        self.states
            .lock()
            .unwrap()
            .get(tenant)
            .map_or(0, |s| s.in_flight)
    }

    /// Point-in-time snapshot of every tenant ever admitted, sorted by
    /// tenant name.
    pub fn snapshot(&self) -> Vec<TenantSnapshot> {
        self.states
            .lock()
            .unwrap()
            .iter()
            .map(|(t, s)| TenantSnapshot {
                tenant: t.name().to_string(),
                weight: s.config.weight.max(1),
                max_in_flight: s.config.max_in_flight,
                admitted: s.admitted,
                rejected_quota: s.rejected_quota,
                in_flight_high_water: s.in_flight_high_water,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_serde_round_trips_and_defaults() {
        let t = Tenant::new("acme");
        let v = t.to_value();
        assert_eq!(Tenant::from_value(&v).unwrap(), t);
        assert_eq!(Tenant::absent(), Some(Tenant::default()));
        assert_eq!(Tenant::from_value(&Value::Null).unwrap(), Tenant::default());
        assert!(Tenant::from_value(&Value::Str(String::new())).is_err());
        assert!(Tenant::from_value(&Value::Int(3)).is_err());
    }

    #[test]
    fn policy_overrides_apply_per_tenant() {
        let mut policy = TenantPolicy::default();
        policy.overrides.insert(
            "vip".into(),
            TenantConfig {
                weight: 8,
                max_in_flight: 2,
            },
        );
        assert_eq!(policy.config_for(&Tenant::new("vip")).weight, 8);
        assert_eq!(policy.config_for(&Tenant::new("other")).weight, 1);
    }

    #[test]
    fn quota_rejects_at_cap_and_releases() {
        let mut policy = TenantPolicy::default();
        policy.overrides.insert(
            "capped".into(),
            TenantConfig {
                weight: 1,
                max_in_flight: 2,
            },
        );
        let reg = TenantRegistry::new(policy);
        let t = Tenant::new("capped");
        reg.try_admit(&t).unwrap();
        reg.try_admit(&t).unwrap();
        let err = reg.try_admit(&t).unwrap_err();
        assert_eq!(err.max_in_flight, 2);
        assert_eq!(reg.in_flight(&t), 2);
        reg.release(&t, true);
        reg.try_admit(&t).unwrap();

        // Unlimited tenants never hit a cap.
        let free = Tenant::new("free");
        for _ in 0..100 {
            reg.try_admit(&free).unwrap();
        }

        let snap = reg.snapshot();
        let capped = snap.iter().find(|s| s.tenant == "capped").unwrap();
        assert_eq!(capped.admitted, 3);
        assert_eq!(capped.rejected_quota, 1);
        assert_eq!(capped.in_flight_high_water, 2);
        let free = snap.iter().find(|s| s.tenant == "free").unwrap();
        assert_eq!(free.admitted, 100);
        assert_eq!(free.rejected_quota, 0);
    }

    #[test]
    fn failed_push_rolls_back_the_admit() {
        let reg = TenantRegistry::new(TenantPolicy::default());
        let t = Tenant::default();
        reg.try_admit(&t).unwrap();
        reg.release(&t, false); // queue push failed: full rollback
        assert_eq!(reg.in_flight(&t), 0);
        assert_eq!(reg.snapshot()[0].admitted, 0);
    }
}
