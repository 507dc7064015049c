//! Per-user fairshare quota accounting.
//!
//! Modeled on the request/release/status discipline of lab fairshare
//! tools: every user owns a `base` number of concurrent guest slots
//! outright, and a shared pool of `extra` slots can be borrowed on top.
//! Dispatch acquires one slot per running guest and yields it when the
//! guest completes, is evicted, or migrates.
//!
//! Invariants (checked by `debug_assert!` on every mutation and pinned
//! by the unit tests):
//!
//! 1. **Pool conservation**: `pool_free + Σ granted extra` equals the
//!    configured pool size at all times.
//! 2. **Allowance ceiling**: each user's `in_use <= base + extra`.
//!    [`Fairshare::try_acquire`] is the *only* way to raise `in_use`,
//!    and it refuses at the ceiling — so a scheduler bug shows up as a
//!    refused dispatch, never as an over-quota guest.
//! 3. **No in-use release**: extra slots still backing running guests
//!    cannot be returned to the pool; [`Fairshare::release`] caps the
//!    return at what the user's current usage allows.

use std::collections::BTreeMap;

/// One user's ledger row, as reported over the wire
/// (`Frame::SchedShareReply`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShareStatus {
    /// Base quota: concurrent running-guest slots owned outright.
    pub base: u64,
    /// Extra slots currently borrowed from the shared pool.
    pub extra: u64,
    /// Slots currently backing running guests.
    pub in_use: u64,
    /// Slots left in the shared pool.
    pub pool_free: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct UserRow {
    base: u64,
    extra: u64,
    in_use: u64,
}

/// The fairshare ledger: per-user base quotas plus a shared extra pool.
#[derive(Debug, Clone, Default)]
pub struct Fairshare {
    pool_size: u64,
    pool_free: u64,
    users: BTreeMap<u32, UserRow>,
}

impl Fairshare {
    /// Creates a ledger with `pool` borrowable extra slots and no users.
    pub fn new(pool: u64) -> Fairshare {
        Fairshare {
            pool_size: pool,
            pool_free: pool,
            users: BTreeMap::new(),
        }
    }

    /// Registers `user` with `base` owned slots (idempotent; a repeat
    /// call updates the base but never disturbs borrowed extra).
    pub fn add_user(&mut self, user: u32, base: u64) {
        self.users.entry(user).or_default().base = base;
        self.check();
    }

    /// Whether `user` is registered.
    pub fn has_user(&self, user: u32) -> bool {
        self.users.contains_key(&user)
    }

    /// Registered user ids.
    pub fn users(&self) -> Vec<u32> {
        self.users.keys().copied().collect()
    }

    /// Requests up to `n` extra slots from the pool for `user`; returns
    /// how many were actually granted (the pool may run dry first; an
    /// unregistered user gets none, and no ledger row).
    pub fn request(&mut self, user: u32, n: u64) -> u64 {
        let Some(row) = self.users.get_mut(&user) else {
            return 0;
        };
        let granted = n.min(self.pool_free);
        row.extra += granted;
        self.pool_free -= granted;
        self.check();
        granted
    }

    /// Returns up to `n` of `user`'s extra slots to the pool; returns
    /// how many actually went back. Slots still backing running guests
    /// are not returnable: the user keeps enough allowance to cover
    /// `in_use`.
    pub fn release(&mut self, user: u32, n: u64) -> u64 {
        let Some(row) = self.users.get_mut(&user) else {
            return 0;
        };
        let pinned = row.in_use.saturating_sub(row.base);
        let returnable = row.extra.saturating_sub(pinned);
        let returned = n.min(returnable);
        row.extra -= returned;
        self.pool_free += returned;
        self.check();
        returned
    }

    /// The user's current allowance: `base + extra`.
    pub fn allowance(&self, user: u32) -> u64 {
        self.users.get(&user).map_or(0, |r| r.base + r.extra)
    }

    /// Acquires one running-guest slot for `user`. Refuses (returns
    /// `false`) at the allowance ceiling — this is the quota gate.
    pub fn try_acquire(&mut self, user: u32) -> bool {
        let Some(row) = self.users.get_mut(&user) else {
            return false;
        };
        if row.in_use >= row.base + row.extra {
            return false;
        }
        row.in_use += 1;
        self.check();
        true
    }

    /// Yields one running-guest slot back (guest completed, evicted,
    /// or migrated off its host).
    pub fn yield_slot(&mut self, user: u32) {
        let row = self.users.entry(user).or_default();
        debug_assert!(row.in_use > 0, "yield without acquire for user {user}");
        row.in_use = row.in_use.saturating_sub(1);
        self.check();
    }

    /// The user's ledger row plus the current pool headroom.
    pub fn status(&self, user: u32) -> ShareStatus {
        let row = self.users.get(&user).copied().unwrap_or_default();
        ShareStatus {
            base: row.base,
            extra: row.extra,
            in_use: row.in_use,
            pool_free: self.pool_free,
        }
    }

    fn check(&self) {
        debug_assert_eq!(
            self.pool_free + self.users.values().map(|r| r.extra).sum::<u64>(),
            self.pool_size,
            "extra-pool conservation violated"
        );
        for (u, r) in &self.users {
            debug_assert!(
                r.in_use <= r.base + r.extra,
                "user {u} over allowance: {} > {} + {}",
                r.in_use,
                r.base,
                r.extra
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_conserved_across_request_release() {
        let mut fs = Fairshare::new(3);
        fs.add_user(1, 2);
        fs.add_user(2, 1);
        assert_eq!(fs.request(1, 2), 2);
        assert_eq!(fs.request(2, 5), 1, "pool runs dry");
        assert_eq!(fs.status(1).pool_free, 0);
        assert_eq!(fs.release(1, 10), 2, "only what was borrowed returns");
        assert_eq!(fs.release(2, 1), 1);
        assert_eq!(fs.status(1).pool_free, 3);
    }

    #[test]
    fn acquire_refuses_at_the_allowance_ceiling() {
        let mut fs = Fairshare::new(2);
        fs.add_user(7, 1);
        assert!(fs.try_acquire(7));
        assert!(!fs.try_acquire(7), "base exhausted");
        assert_eq!(fs.request(7, 1), 1);
        assert!(fs.try_acquire(7), "extra raises the ceiling");
        assert!(!fs.try_acquire(7));
        fs.yield_slot(7);
        assert!(fs.try_acquire(7));
    }

    #[test]
    fn in_use_extra_slots_cannot_be_released() {
        let mut fs = Fairshare::new(2);
        fs.add_user(3, 1);
        fs.request(3, 2);
        assert!(fs.try_acquire(3));
        assert!(fs.try_acquire(3));
        assert!(fs.try_acquire(3)); // base 1 + extra 2, all running
        assert_eq!(fs.release(3, 2), 0, "all extra is pinned under guests");
        fs.yield_slot(3);
        assert_eq!(fs.release(3, 2), 1, "one slot freed, one still pinned");
        fs.yield_slot(3);
        fs.yield_slot(3);
        assert_eq!(fs.release(3, 2), 1);
        assert_eq!(fs.status(3).pool_free, 2);
    }

    #[test]
    fn unknown_users_have_zero_allowance() {
        let mut fs = Fairshare::new(1);
        assert_eq!(fs.allowance(9), 0);
        assert!(!fs.try_acquire(9));
        assert_eq!(fs.status(9).base, 0);
        assert_eq!((fs.request(9, 1), fs.release(9, 1)), (0, 0));
        assert!(!fs.has_user(9), "share ops register no one");
    }
}
