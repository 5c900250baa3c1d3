//! The bank-transfer workload: the canonical "money must not evaporate" STM demo.
//!
//! A [`Bank`] is an array of accounts stored in transactional variables.  Worker
//! threads repeatedly transfer between two accounts; the choice of accounts is what
//! controls contention:
//!
//! * with **per-thread partitions** every thread touches only its own accounts —
//!   fully disjoint transactions, the regime where strict disjoint-access-parallelism
//!   pays off;
//! * with a non-zero **cross-partition fraction** or a **Zipfian hotspot** transfers
//!   conflict, exercising aborts (obstruction-free backend) or lock waiting
//!   (blocking backend).
//!
//! The invariant `sum(accounts) == constant` is checked by [`Bank::total`] — on the
//! consistent backends it must hold at all times; on the PRAM backend it visibly
//! breaks, which is exactly the consistency sacrifice the paper's Section 5 warns
//! about.

use crate::zipf::Zipf;
use rand::Rng;
use stm_runtime::{Stm, TVar};

/// Configuration of the bank workload.
#[derive(Debug, Clone, Copy)]
pub struct BankConfig {
    /// Number of accounts.
    pub accounts: usize,
    /// Initial balance of each account.
    pub initial_balance: i64,
    /// Fraction (0.0–1.0) of transfers that pick both accounts uniformly at random
    /// across the whole bank instead of inside the calling thread's partition.
    pub cross_fraction: f64,
    /// Optional Zipf exponent: when set, the *destination* account of every transfer
    /// is drawn from a Zipfian hotspot distribution over the whole bank.
    pub zipf_theta: Option<f64>,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig { accounts: 64, initial_balance: 1_000, cross_fraction: 0.0, zipf_theta: None }
    }
}

/// A bank: transactional account variables plus the workload configuration.
pub struct Bank {
    accounts: Vec<TVar<i64>>,
    config: BankConfig,
    zipf: Option<Zipf>,
}

impl Bank {
    /// Allocate the accounts inside an STM instance.
    pub fn new(stm: &Stm, config: BankConfig) -> Self {
        let accounts = (0..config.accounts).map(|_| stm.alloc(config.initial_balance)).collect();
        let zipf = config.zipf_theta.map(|theta| Zipf::new(config.accounts, theta));
        Bank { accounts, config, zipf }
    }

    /// Number of accounts.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// `true` if the bank has no accounts.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// The expected total balance (what [`Bank::total`] must return on a consistent
    /// backend).
    pub fn expected_total(&self) -> i64 {
        self.config.accounts as i64 * self.config.initial_balance
    }

    /// Pick the (from, to) accounts for one transfer performed by `thread` out of
    /// `n_threads`.
    pub fn pick_accounts(
        &self,
        thread: usize,
        n_threads: usize,
        rng: &mut impl Rng,
    ) -> (TVar<i64>, TVar<i64>) {
        let n = self.accounts.len();
        let cross = rng.gen_bool(self.config.cross_fraction.clamp(0.0, 1.0));
        let partition = (n / n_threads.max(1)).max(1);
        let base = (thread * partition) % n;
        let local = |rng: &mut dyn rand::RngCore| base + (rng.gen_range(0..partition) % n);
        let from = if cross { rng.gen_range(0..n) } else { local(rng) % n };
        let to = match (&self.zipf, cross) {
            (Some(z), _) => z.sample(rng),
            (None, true) => rng.gen_range(0..n),
            (None, false) => local(rng) % n,
        };
        (self.accounts[from], self.accounts[to % n])
    }

    /// Perform one transfer of `amount` between the chosen accounts (retrying until it
    /// commits).  Returns the amount actually moved (0 when `from == to`).
    pub fn transfer(&self, stm: &Stm, from: TVar<i64>, to: TVar<i64>, amount: i64) -> i64 {
        if from == to {
            return 0;
        }
        stm.run(|tx| {
            let balance = tx.read(from)?;
            let moved = amount.min(balance.max(0));
            tx.write(from, balance - moved)?;
            let dest = tx.read(to)?;
            tx.write(to, dest + moved)?;
            Ok(moved)
        })
    }

    /// Sum all accounts in one transaction.
    pub fn total(&self, stm: &Stm) -> i64 {
        stm.run(|tx| {
            let mut sum = 0;
            for account in &self.accounts {
                sum += tx.read(*account)?;
            }
            Ok(sum)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stm_runtime::registry::{OBSTRUCTION_FREE, TL2_BLOCKING};

    #[test]
    fn transfers_preserve_the_total_on_consistent_backends() {
        for kind in [TL2_BLOCKING, OBSTRUCTION_FREE] {
            let stm = Stm::new(kind);
            let bank = Bank::new(&stm, BankConfig { accounts: 8, ..Default::default() });
            assert_eq!(bank.len(), 8);
            assert!(!bank.is_empty());
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..200 {
                let (from, to) = bank.pick_accounts(0, 1, &mut rng);
                bank.transfer(&stm, from, to, 17);
            }
            assert_eq!(bank.total(&stm), bank.expected_total(), "{kind:?}");
        }
    }

    #[test]
    fn transfers_never_overdraw() {
        let stm = Stm::new(OBSTRUCTION_FREE);
        let bank =
            Bank::new(&stm, BankConfig { accounts: 4, initial_balance: 10, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let (from, to) = bank.pick_accounts(0, 1, &mut rng);
            bank.transfer(&stm, from, to, 1_000);
        }
        let total = bank.total(&stm);
        assert_eq!(total, bank.expected_total());
        // And no account went negative.
        for i in 0..bank.len() {
            let v = stm.read_now(bank.accounts[i]);
            assert!(v >= 0, "account {i} is negative: {v}");
        }
    }

    #[test]
    fn zipf_config_prefers_hot_destinations() {
        let stm = Stm::new(OBSTRUCTION_FREE);
        let bank = Bank::new(
            &stm,
            BankConfig { accounts: 32, zipf_theta: Some(0.99), ..Default::default() },
        );
        let mut rng = StdRng::seed_from_u64(9);
        let mut hot = 0;
        for _ in 0..1_000 {
            let (_, to) = bank.pick_accounts(0, 4, &mut rng);
            if to == bank.accounts[0] {
                hot += 1;
            }
        }
        assert!(hot > 100, "hot destination picked only {hot} times");
    }

    #[test]
    fn self_transfers_move_nothing() {
        let stm = Stm::new(TL2_BLOCKING);
        let bank = Bank::new(&stm, BankConfig { accounts: 2, ..Default::default() });
        assert_eq!(bank.transfer(&stm, bank.accounts[0], bank.accounts[0], 5), 0);
    }
}
