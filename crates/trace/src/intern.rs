//! String interning: the id-first identifier layer of the hot paths.
//!
//! The paper's scale argument (§3.2.2) — billions of spans but only a
//! few thousand distinct service/operation names — means every hot
//! path that hashes, compares or clones identifier *strings* is doing
//! per-span work proportional to string length for information worth
//! 32 bits. This module provides the [`Symbol`]/[`Interner`] layer the
//! rest of the system builds on:
//!
//! * [`Symbol`] is a dense `u32` handle; comparing, hashing and
//!   copying one is a register operation,
//! * [`Interner`] is a thread-safe append-only symbol table with
//!   *stable resolve*: once a string is interned its symbol and its
//!   `&'static str` text never change or move for the life of the
//!   process,
//! * [`Interner::global`] is the process-wide table every
//!   [`Span`](crate::Span) draws its `service_sym`/`name_sym` from, so
//!   equal identifier strings yield equal symbols across threads and
//!   subsystems (property-tested under concurrent interning),
//! * [`IStr::intern`] fronts that table with a small per-thread
//!   direct-mapped cache of its answers, so re-interning a known
//!   identifier — the per-span work of both ingest boundaries — is a
//!   hash and a compare with no lock taken.
//!
//! Interned strings are allocated once and intentionally never freed
//! (the table only grows with the number of *distinct* identifiers,
//! which is bounded by the deployment's service/operation vocabulary —
//! the same argument `EmbeddingInterner` makes for one vector per
//! distinct string). This is what makes `resolve` a borrow instead of
//! a reference-counted clone.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, PoisonError, RwLock};

/// A dense interned-string handle.
///
/// Symbols are meaningful relative to the [`Interner`] that produced
/// them; the convenience constructors/accessors ([`Symbol::intern`],
/// [`Symbol::as_str`]) use the process-global table, which is where
/// every [`Span`](crate::Span) symbol comes from. Two symbols from the
/// same interner are equal iff their strings are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Intern `s` in the process-global table.
    pub fn intern(s: &str) -> Symbol {
        Interner::global().intern(s)
    }

    /// Look up `s` in the process-global table without inserting.
    pub fn lookup(s: &str) -> Option<Symbol> {
        Interner::global().get(s)
    }

    /// The text of a symbol produced by the process-global table.
    ///
    /// # Panics
    ///
    /// Panics if `self` did not come from [`Interner::global`] (e.g. a
    /// symbol from a local test interner with a larger id space).
    pub fn as_str(self) -> &'static str {
        Interner::global().resolve(self)
    }

    /// The raw dense id (index into the producing interner's table).
    pub fn id(self) -> u32 {
        self.0
    }

    /// Rebuild a symbol from a raw id. The caller asserts the id came
    /// from [`Symbol::id`] against the same interner.
    pub fn from_id(id: u32) -> Symbol {
        Symbol(id)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match Interner::global().try_resolve(*self) {
            Some(s) => f.write_str(s),
            None => write!(f, "<sym#{}>", self.0),
        }
    }
}

/// A pooled, interned string: the identifier text plus its [`Symbol`]
/// in [`Interner::global`], in one `Copy` handle.
///
/// This is the *storage* form of an interned identifier — what a
/// [`Span`](crate::Span) carries for `service`/`name`/`pod`/`node`
/// instead of an owned `String`. The global interner is the pool:
/// each distinct identifier string is allocated exactly once for the
/// life of the process, and every span referring to it holds this
/// 24-byte handle. Cloning is a register copy, equality and hashing
/// are `u32` operations on the symbol, and `as_str` is a borrow —
/// so steady-state ingest of a bounded identifier vocabulary does
/// zero per-span string allocation.
///
/// `IStr` dereferences to `str`, compares against `str`/`String`
/// directly, and displays as its text, so it drops into most code
/// that previously held a `String`.
#[derive(Clone, Copy)]
pub struct IStr {
    sym: Symbol,
    text: &'static str,
}

/// Slots in the per-thread L1 in front of [`Interner::global`]: a
/// power of two, 24 bytes a slot, so 24 KiB of zero-initialised
/// thread-local storage. A deployment's few thousand names do not all
/// fit, and need not — a name that lost its slot costs one read lock
/// on the global table. On the 1100-RPC benchmark app 4096 slots
/// bought 7 % on wire decode and nothing measurable end to end, for
/// four times the memory on every thread.
const L1_SLOTS: usize = 1024;

thread_local! {
    /// Direct-mapped cache of answers the global table already gave
    /// this thread. Slots only ever hold handles to text the global
    /// table leaked, so the cache owns nothing, needs no destructor
    /// and can never disagree with the table.
    static L1: [Cell<Option<IStr>>; L1_SLOTS] = const { [const { Cell::new(None) }; L1_SLOTS] };
}

/// L1 slot of `bytes`: a multiply-rotate hash over 8-byte words, the
/// last one overlapping so no tail is copied. The slot only has to
/// spread a few thousand short names; a hit is verified against the
/// text, so a collision costs a miss, never a wrong answer.
fn l1_slot(bytes: &[u8]) -> usize {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let n = bytes.len();
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let half = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let mut h = n as u64;
    if n >= 8 {
        let mut at = 0;
        while at + 8 < n {
            h = mix(h, word(at));
            at += 8;
        }
        h = mix(h, word(n - 8));
    } else if n >= 4 {
        h = mix(h, u64::from(half(0)) | u64::from(half(n - 4)) << 32);
    } else if n > 0 {
        // 1..=3 bytes: first, middle and last cover every byte.
        h = mix(
            h,
            u64::from(bytes[0]) | u64::from(bytes[n / 2]) << 8 | u64::from(bytes[n - 1]) << 16,
        );
    }
    (h >> (64 - L1_SLOTS.trailing_zeros())) as usize
}

impl IStr {
    /// Intern `s` in the process-global pool and return its handle.
    ///
    /// Steady state is a hash and a compare: a per-thread
    /// direct-mapped L1 remembers handles the global table already
    /// returned, so a repeat identifier takes no lock and allocates
    /// nothing. A miss asks [`Interner::global`] (one read lock) and
    /// overwrites the slot.
    pub fn intern(s: &str) -> IStr {
        L1.with(|l1| {
            let slot = &l1[l1_slot(s.as_bytes())];
            match slot.get() {
                Some(hit) if hit.text == s => hit,
                _ => {
                    let (sym, text) = Interner::global().intern_entry(s);
                    let fresh = IStr { sym, text };
                    slot.set(Some(fresh));
                    fresh
                }
            }
        })
    }

    /// Handle for a symbol already produced by [`Interner::global`].
    pub fn from_symbol(sym: Symbol) -> IStr {
        IStr {
            sym,
            text: Interner::global().resolve(sym),
        }
    }

    /// The pooled text. `&'static` because interned strings are never
    /// freed (see the module docs for the bounded-leak argument).
    pub fn as_str(self) -> &'static str {
        self.text
    }

    /// The interned symbol — the id the hot paths key on.
    pub fn sym(self) -> Symbol {
        self.sym
    }
}

impl Default for IStr {
    /// The empty identifier (`IStr::intern("")`), resolved once per
    /// process.
    fn default() -> Self {
        static EMPTY: OnceLock<IStr> = OnceLock::new();
        *EMPTY.get_or_init(|| IStr::intern(""))
    }
}

impl std::ops::Deref for IStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.text
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        self.text
    }
}

// Equality and hashing go through the symbol: the global interner is
// bijective, so equal text ⇔ equal symbol, and a u32 compare/hash
// beats walking the bytes.
impl PartialEq for IStr {
    fn eq(&self, other: &IStr) -> bool {
        self.sym == other.sym
    }
}

impl Eq for IStr {}

impl std::hash::Hash for IStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sym.hash(state);
    }
}

// Ordering is lexicographic on the text (symbol ids are assigned in
// first-seen order, which would leak interning history into sorts).
impl PartialOrd for IStr {
    fn partial_cmp(&self, other: &IStr) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IStr {
    fn cmp(&self, other: &IStr) -> std::cmp::Ordering {
        if self.sym == other.sym {
            std::cmp::Ordering::Equal
        } else {
            self.text.cmp(other.text)
        }
    }
}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        self.text == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        self.text == *other
    }
}

impl PartialEq<String> for IStr {
    fn eq(&self, other: &String) -> bool {
        self.text == other.as_str()
    }
}

impl PartialEq<IStr> for str {
    fn eq(&self, other: &IStr) -> bool {
        self == other.text
    }
}

impl PartialEq<IStr> for &str {
    fn eq(&self, other: &IStr) -> bool {
        *self == other.text
    }
}

impl PartialEq<IStr> for String {
    fn eq(&self, other: &IStr) -> bool {
        self.as_str() == other.text
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> IStr {
        IStr::intern(s)
    }
}

impl From<&String> for IStr {
    fn from(s: &String) -> IStr {
        IStr::intern(s)
    }
}

impl From<String> for IStr {
    fn from(s: String) -> IStr {
        IStr::intern(&s)
    }
}

impl From<IStr> for String {
    fn from(s: IStr) -> String {
        s.text.to_string()
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.text, f)
    }
}

/// Interner state: the map borrows the same leaked allocations the
/// dense table points at, so both stay valid forever.
#[derive(Default)]
struct Inner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

/// A thread-safe, append-only string interner with stable resolve.
///
/// `intern` takes a read lock on the hit path (the overwhelmingly
/// common case once the identifier vocabulary has been seen) and a
/// write lock only for first-seen strings. Interned text is leaked
/// into the heap exactly once, which is what lets [`Interner::resolve`]
/// hand out `&'static str` without reference counting; the leak is
/// bounded by the number of distinct strings ever interned.
#[derive(Default)]
pub struct Interner {
    inner: RwLock<Inner>,
}

impl Interner {
    /// Create an empty interner (tests and tooling; production code
    /// shares [`Interner::global`]).
    pub fn new() -> Self {
        Interner::default()
    }

    /// The process-wide interner backing [`Span`](crate::Span) symbols.
    pub fn global() -> &'static Interner {
        static GLOBAL: OnceLock<Interner> = OnceLock::new();
        GLOBAL.get_or_init(Interner::new)
    }

    /// Intern `s`, returning its stable symbol. Idempotent: the same
    /// string always yields the same symbol, from any thread.
    pub fn intern(&self, s: &str) -> Symbol {
        self.intern_entry(s).0
    }

    /// Intern `s` and return its symbol together with the pooled text,
    /// both from one acquisition of the table (the map's key *is* the
    /// leaked text, so no second `resolve` is needed).
    fn intern_entry(&self, s: &str) -> (Symbol, &'static str) {
        if let Some((&text, &id)) = self.read().map.get_key_value(s) {
            return (Symbol(id), text);
        }
        let mut w = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        // Double-checked: another thread may have interned `s` between
        // our read and write lock.
        if let Some((&text, &id)) = w.map.get_key_value(s) {
            return (Symbol(id), text);
        }
        let id = u32::try_from(w.strings.len()).expect("interner capacity (2^32 symbols) exhausted");
        let text: &'static str = Box::leak(s.into());
        w.strings.push(text);
        w.map.insert(text, id);
        (Symbol(id), text)
    }

    /// Look up a string without inserting it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.read().map.get(s).map(|&id| Symbol(id))
    }

    /// The text of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &'static str {
        self.try_resolve(sym).expect("symbol from a different interner")
    }

    /// The text of `sym`, or `None` if it is not from this interner.
    pub fn try_resolve(&self, sym: Symbol) -> Option<&'static str> {
        self.read().strings.get(sym.0 as usize).copied()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.read().strings.len()
    }

    /// Whether no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("cart");
        let b = i.intern("cart");
        let c = i.intern("orders");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let i = Interner::new();
        let texts = ["GET /", "checkout", "", "db.query", "checkout"];
        let syms: Vec<Symbol> = texts.iter().map(|t| i.intern(t)).collect();
        for (t, s) in texts.iter().zip(&syms) {
            assert_eq!(i.resolve(*s), *t);
        }
        assert_eq!(syms[1], syms[4]);
    }

    #[test]
    fn get_does_not_insert() {
        let i = Interner::new();
        assert_eq!(i.get("ghost"), None);
        assert!(i.is_empty());
        let s = i.intern("ghost");
        assert_eq!(i.get("ghost"), Some(s));
    }

    #[test]
    fn try_resolve_rejects_foreign_ids() {
        let i = Interner::new();
        i.intern("only");
        assert_eq!(i.try_resolve(Symbol(0)), Some("only"));
        assert_eq!(i.try_resolve(Symbol(7)), None);
    }

    #[test]
    fn global_symbols_are_stable_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..64)
                        .map(|k| Symbol::intern(&format!("svc-{}", k % 16)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for row in &all[1..] {
            assert_eq!(row, &all[0]);
        }
        for (k, sym) in all[0].iter().take(16).enumerate() {
            assert_eq!(sym.as_str(), format!("svc-{k}"));
        }
    }

    #[test]
    fn symbol_display_and_raw_id() {
        let s = Symbol::intern("display-me");
        assert_eq!(s.to_string(), "display-me");
        assert_eq!(Symbol::from_id(s.id()), s);
        assert_eq!(Symbol::lookup("display-me"), Some(s));
    }

    #[test]
    fn istr_pools_identical_text() {
        let a = IStr::intern("pooled-service");
        let b = IStr::intern("pooled-service");
        assert_eq!(a, b);
        assert_eq!(a.sym(), b.sym());
        // Same leaked allocation, not merely equal bytes.
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn l1_never_aliases_colliding_strings() {
        // Same slot, same length, one byte apart: the closest two
        // strings can be without being equal. Found by search, so the
        // test follows the hash wherever it is tuned.
        let names: Vec<String> = (0..8u8)
            .flat_map(|p| (b'!'..=b'~').map(move |c| format!("l1-{}-collide-{p}", c as char)))
            .collect();
        let mut pairs = Vec::new();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                let one_byte_apart = a.bytes().zip(b.bytes()).filter(|(x, y)| x != y).count() == 1;
                if one_byte_apart && l1_slot(a.as_bytes()) == l1_slot(b.as_bytes()) {
                    pairs.push((a.as_str(), b.as_str()));
                }
            }
        }
        assert!(!pairs.is_empty(), "no colliding pair to test");
        for (a, b) in pairs {
            // Each intern evicts the other from the shared slot.
            for _ in 0..3 {
                let (ia, ib) = (IStr::intern(a), IStr::intern(b));
                assert_eq!((ia.as_str(), ib.as_str()), (a, b));
                assert_ne!(ia, ib);
                assert_eq!(ia.sym(), Interner::global().intern(a));
                assert_eq!(ib.sym(), Interner::global().intern(b));
            }
        }
    }

    #[test]
    fn default_is_the_interned_empty_string() {
        let empty = IStr::default();
        assert_eq!(empty, IStr::intern(""));
        assert!(std::ptr::eq(empty.as_str(), IStr::intern("").as_str()));
        assert_eq!(empty.sym(), Interner::global().intern(""));
    }

    #[test]
    fn istr_compares_against_strings() {
        let a = IStr::intern("cart");
        assert_eq!(a, "cart");
        assert_eq!("cart", a);
        assert_eq!(a, String::from("cart"));
        assert_eq!(String::from("cart"), a);
        assert_ne!(a, "orders");
        assert!(!a.is_empty());
        assert!(IStr::default().is_empty());
    }

    #[test]
    fn istr_orders_lexicographically() {
        // Intern out of order so symbol-id order disagrees with text
        // order.
        let z = IStr::intern("zzz-last");
        let a = IStr::intern("aaa-first");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v[0], a);
    }

    #[test]
    fn istr_round_trips_symbol_and_string() {
        let a = IStr::intern("roundtrip");
        assert_eq!(IStr::from_symbol(a.sym()), a);
        assert_eq!(String::from(a), "roundtrip");
        assert_eq!(a.to_string(), "roundtrip");
        assert_eq!(format!("{a:?}"), "\"roundtrip\"");
        assert_eq!(IStr::from("roundtrip"), a);
        assert_eq!(IStr::from(String::from("roundtrip")), a);
        assert_eq!(a.len(), "roundtrip".len());
    }
}
