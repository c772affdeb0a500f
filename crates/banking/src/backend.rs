//! BeSim-style banking backend: an in-memory store with a pipe-delimited
//! text protocol.
//!
//! SPECWeb2009 pairs the web frontend with "BeSim", a backend simulator
//! serving account data. We reproduce it as [`BankStore`]:
//!
//! * the **native** (CPU) handlers call [`BankStore::respond`] directly —
//!   the paper's "implement the backend as a function call" (§5.3.2);
//! * the **device** path serializes every user's command responses into
//!   fixed-size records in device global memory
//!   ([`BankStore::serialize_device`]), where the backend kernel
//!   (`kernels::backend`) answers requests without leaving the GPU —
//!   the paper's Titan B/C "device backend";
//! * **Titan A** runs the same text protocol across the modelled PCIe bus.
//!
//! Protocol: request `"<cmd>|<userid>|<args...>\n"`, response a
//! pipe-delimited field list terminated by `\n` (see [`BackendCmd`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Bytes reserved per command slot in a device store record.
pub const SLOT_BYTES: u32 = 256;
/// Command slots per user record.
pub const SLOTS: u32 = 7;
/// Bytes per user record in the device store (power of two for cheap
/// addressing: `record = store_base + userid * RECORD_BYTES`).
pub const RECORD_BYTES: u32 = 2048;

/// Backend commands; the numeric value is the on-wire command id.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum BackendCmd {
    /// Credential check → `OK|<userid>` (errors reply `!ERR`).
    Auth = 0,
    /// Account list → `<n>|<bal_cents_0>|...`.
    Accounts = 1,
    /// Profile → `<name>|<address>|<email>|<phone>`.
    Profile = 2,
    /// Payment/transfer history → `<k>|<amt>|<payee>|...`.
    History = 3,
    /// Execute a payment → `OK|<confirmation>|<new_balance_cents>`.
    Pay = 4,
    /// Check order → `OK|<order_number>|<fee_cents>`.
    Order = 5,
    /// Registered payees → `<k>|<name_0>|...` (used by the quick-pay
    /// extension).
    Payees = 6,
}

impl BackendCmd {
    /// All commands in slot order.
    pub const ALL: [BackendCmd; 7] = [
        BackendCmd::Auth,
        BackendCmd::Accounts,
        BackendCmd::Profile,
        BackendCmd::History,
        BackendCmd::Pay,
        BackendCmd::Order,
        BackendCmd::Payees,
    ];

    /// On-wire command id.
    pub fn id(self) -> u32 {
        self as u32
    }

    /// Inverse of [`BackendCmd::id`].
    pub fn from_id(id: u32) -> Option<BackendCmd> {
        Self::ALL.get(id as usize).copied()
    }
}

/// One bank account.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Account {
    /// Account number.
    pub number: u32,
    /// Balance in cents.
    pub balance_cents: u32,
}

/// A registered payee.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Payee {
    /// Payee id.
    pub id: u32,
    /// Display name.
    pub name: String,
}

/// One transaction history entry.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Txn {
    /// Amount in cents.
    pub amount_cents: u32,
    /// Payee display name.
    pub payee: String,
}

/// One bank customer.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct User {
    /// User id (also the record index).
    pub id: u32,
    /// Display name.
    pub name: String,
    /// Street address.
    pub address: String,
    /// Email address.
    pub email: String,
    /// Phone number.
    pub phone: String,
    /// 2–4 accounts.
    pub accounts: Vec<Account>,
    /// 2–5 payees.
    pub payees: Vec<Payee>,
    /// 2–6 history entries.
    pub txns: Vec<Txn>,
}

const FIRST_NAMES: [&str; 8] = [
    "Ada", "Grace", "Alan", "Edsger", "Barbara", "Donald", "Radia", "Ken",
];
const LAST_NAMES: [&str; 8] = [
    "Lovelace", "Hopper", "Turing", "Dijkstra", "Liskov", "Knuth", "Perlman", "Thompson",
];
const STREETS: [&str; 6] = [
    "Maple Ave",
    "Oak St",
    "Elm Dr",
    "Birch Ln",
    "Cedar Ct",
    "Walnut Blvd",
];
const PAYEE_NAMES: [&str; 8] = [
    "Electric Company",
    "City Water",
    "Gas Works",
    "Telecom One",
    "Mortgage Trust",
    "Insurance Co",
    "Cable Plus",
    "Campus Gym",
];

/// The in-memory bank: deterministic synthetic data for `num_users`
/// customers.
///
/// # Example
///
/// ```
/// use rhythm_banking::backend::{BankStore, BackendCmd};
///
/// let store = BankStore::generate(128, 42);
/// let resp = store.respond(BackendCmd::Accounts, 7, &[]);
/// let n: usize = resp.split('|').next().unwrap().parse().unwrap();
/// assert!((2..=4).contains(&n));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BankStore {
    users: Vec<User>,
}

impl BankStore {
    /// Generate `num_users` users deterministically from `seed`.
    pub fn generate(num_users: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let users = (0..num_users)
            .map(|id| {
                let name = format!(
                    "{} {}",
                    FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
                    LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())]
                );
                let address = format!(
                    "{} {}, Springfield",
                    rng.gen_range(1..9999),
                    STREETS[rng.gen_range(0..STREETS.len())]
                );
                let email = format!("user{id}@example.com");
                let phone = format!(
                    "555-{:03}-{:04}",
                    rng.gen_range(100..999),
                    rng.gen_range(1000..9999)
                );
                let accounts = (0..rng.gen_range(2..=4))
                    .map(|i| Account {
                        number: id * 10 + i,
                        balance_cents: rng.gen_range(100..500_000_000),
                    })
                    .collect();
                let payees = (0..rng.gen_range(2..=5))
                    .map(|i| Payee {
                        id: i,
                        name: PAYEE_NAMES[rng.gen_range(0..PAYEE_NAMES.len())].to_string(),
                    })
                    .collect();
                let txns = (0..rng.gen_range(2..=6))
                    .map(|_| Txn {
                        amount_cents: rng.gen_range(100..500_000),
                        payee: PAYEE_NAMES[rng.gen_range(0..PAYEE_NAMES.len())].to_string(),
                    })
                    .collect();
                User {
                    id,
                    name,
                    address,
                    email,
                    phone,
                    accounts,
                    payees,
                    txns,
                }
            })
            .collect();
        BankStore { users }
    }

    /// Number of users.
    pub fn num_users(&self) -> u32 {
        self.users.len() as u32
    }

    /// Look up one user.
    pub fn user(&self, id: u32) -> Option<&User> {
        self.users.get(id as usize)
    }

    /// Answer one backend command — the "function call backend" used by
    /// the native CPU path. Unknown users yield `"!ERR"`.
    ///
    /// `args` carries command arguments (e.g. payment amount in cents);
    /// they influence the Pay/Order confirmations deterministically.
    pub fn respond(&self, cmd: BackendCmd, userid: u32, args: &[u32]) -> String {
        let Some(user) = self.user(userid) else {
            return "!ERR".to_string();
        };
        match cmd {
            BackendCmd::Auth => format!("OK|{}", user.id),
            BackendCmd::Accounts => {
                let mut s = user.accounts.len().to_string();
                for a in &user.accounts {
                    s.push('|');
                    s.push_str(&a.balance_cents.to_string());
                }
                s
            }
            BackendCmd::Profile => format!(
                "{}|{}|{}|{}",
                user.name, user.address, user.email, user.phone
            ),
            BackendCmd::History => {
                let mut s = user.txns.len().to_string();
                for t in &user.txns {
                    s.push('|');
                    s.push_str(&t.amount_cents.to_string());
                    s.push('|');
                    s.push_str(&t.payee);
                }
                s
            }
            BackendCmd::Pay => {
                let amount = args.first().copied().unwrap_or(0);
                let confirmation = confirmation_number(user.id, amount);
                let balance = user.accounts[0].balance_cents.saturating_sub(amount);
                format!("OK|{confirmation}|{balance}")
            }
            BackendCmd::Order => {
                let qty = args.first().copied().unwrap_or(1);
                let order = confirmation_number(user.id, qty.wrapping_mul(7919));
                format!("OK|{order}|{}", 1_95 * qty.max(1))
            }
            BackendCmd::Payees => {
                let mut s = user.payees.len().to_string();
                for p in &user.payees {
                    s.push('|');
                    s.push_str(&p.name);
                }
                s
            }
        }
    }

    /// Parse a request line back into `(cmd, userid, args)`.
    pub fn parse_request(text: &str) -> Option<(BackendCmd, u32, Vec<u32>)> {
        let mut it = text.trim_end_matches('\n').split('|');
        let cmd = BackendCmd::from_id(it.next()?.parse().ok()?)?;
        let userid = it.next()?.parse().ok()?;
        let args = it.filter_map(|a| a.parse().ok()).collect();
        Some((cmd, userid, args))
    }

    /// Serialize the store for the device backend: one
    /// [`RECORD_BYTES`]-byte record per user, with the response text for
    /// command `c` at slot offset `c * SLOT_BYTES`, `\n`-terminated.
    ///
    /// Pay/Order responses are serialized with zero args; the device
    /// backend models a key-value cache hit (the paper's "local device
    /// backend emulates a high throughput key-value store").
    pub fn serialize_device(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.users.len() * RECORD_BYTES as usize];
        for user in &self.users {
            let base = user.id as usize * RECORD_BYTES as usize;
            for cmd in BackendCmd::ALL {
                let mut text = self.respond(cmd, user.id, &[]);
                text.push('\n');
                let bytes = text.as_bytes();
                assert!(
                    bytes.len() <= SLOT_BYTES as usize,
                    "slot overflow: {} bytes for cmd {:?}",
                    bytes.len(),
                    cmd
                );
                let off = base + (cmd.id() * SLOT_BYTES) as usize;
                out[off..off + bytes.len()].copy_from_slice(bytes);
            }
        }
        out
    }

    /// Total device-store size in bytes for this user count.
    pub fn device_bytes(&self) -> u32 {
        self.users.len() as u32 * RECORD_BYTES
    }
}

/// Deterministic confirmation number from user and amount.
pub fn confirmation_number(userid: u32, amount: u32) -> u32 {
    let mut x = userid
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(amount.wrapping_mul(0x85EB_CA6B));
    x ^= x >> 16;
    // Keep it positive-decimal-friendly and below 10 digits.
    x % 1_000_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = BankStore::generate(16, 7);
        let b = BankStore::generate(16, 7);
        assert_eq!(a, b);
        let c = BankStore::generate(16, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn user_shape_bounds() {
        let store = BankStore::generate(64, 1);
        for id in 0..64 {
            let u = store.user(id).unwrap();
            assert!((2..=4).contains(&u.accounts.len()));
            assert!((2..=5).contains(&u.payees.len()));
            assert!((2..=6).contains(&u.txns.len()));
        }
    }

    #[test]
    fn unknown_user_errs() {
        let store = BankStore::generate(4, 1);
        assert_eq!(store.respond(BackendCmd::Auth, 99, &[]), "!ERR");
    }

    #[test]
    fn accounts_response_parses() {
        let store = BankStore::generate(8, 2);
        let resp = store.respond(BackendCmd::Accounts, 3, &[]);
        let fields: Vec<_> = resp.split('|').collect();
        let n: usize = fields[0].parse().unwrap();
        assert_eq!(fields.len(), n + 1);
    }

    #[test]
    fn parse_request_reads_a_request_line() {
        let (cmd, user, args) = BankStore::parse_request("4|42|1999\n").unwrap();
        assert_eq!(cmd, BackendCmd::Pay);
        assert_eq!(user, 42);
        assert_eq!(args, vec![1999]);
    }

    #[test]
    fn parse_request_rejects_garbage() {
        assert!(BankStore::parse_request("love|letters").is_none());
        assert!(BankStore::parse_request("9|1").is_none(), "unknown cmd id");
    }

    #[test]
    fn device_serialization_layout() {
        let store = BankStore::generate(8, 3);
        let img = store.serialize_device();
        assert_eq!(img.len(), 8 * RECORD_BYTES as usize);
        // User 5's Accounts slot contains its Accounts response.
        let expect = {
            let mut t = store.respond(BackendCmd::Accounts, 5, &[]);
            t.push('\n');
            t
        };
        let off = 5 * RECORD_BYTES as usize + (BackendCmd::Accounts.id() * SLOT_BYTES) as usize;
        assert_eq!(&img[off..off + expect.len()], expect.as_bytes());
    }

    #[test]
    fn pay_deducts_from_first_account() {
        let store = BankStore::generate(4, 9);
        let bal0 = store.user(1).unwrap().accounts[0].balance_cents;
        let resp = store.respond(BackendCmd::Pay, 1, &[500]);
        let fields: Vec<_> = resp.split('|').collect();
        assert_eq!(fields[0], "OK");
        let new_bal: u32 = fields[2].parse().unwrap();
        assert_eq!(new_bal, bal0.saturating_sub(500));
    }

    #[test]
    fn cmd_ids_roundtrip() {
        for cmd in BackendCmd::ALL {
            assert_eq!(BackendCmd::from_id(cmd.id()), Some(cmd));
        }
        assert_eq!(BackendCmd::from_id(7), None);
    }

    #[test]
    fn confirmation_is_deterministic_and_bounded() {
        assert_eq!(confirmation_number(5, 10), confirmation_number(5, 10));
        assert!(confirmation_number(u32::MAX, u32::MAX) < 1_000_000_000);
    }
}
