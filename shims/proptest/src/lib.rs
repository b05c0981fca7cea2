//! Minimal stand-in for the `proptest` API surface this workspace uses,
//! vendored so tests build offline.
//!
//! Semantics: each `proptest!` test runs `ProptestConfig::cases` random
//! cases (default 64, override with `PROPTEST_CASES`). The RNG is seeded
//! deterministically from the test name (override with `PROPTEST_SEED`),
//! so failures reproduce. On failure the generated inputs are printed.
//! There is **no shrinking** — the failing case prints as generated.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The per-case random source handed to strategies.
pub struct TestRng {
    inner: SmallRng,
}

impl TestRng {
    pub fn from_seed_u64(seed: u64) -> TestRng {
        TestRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "TestRng::below(0)");
        self.inner.gen_range(0..n)
    }
}

/// FNV-1a, used to derive a stable per-test seed from the test name.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Runtime support for the `proptest!` macro — not part of the public
/// upstream API.
pub mod runtime {
    use super::{fnv1a, TestRng};

    pub fn seed_for(test_name: &str) -> u64 {
        if let Ok(s) = std::env::var("PROPTEST_SEED") {
            if let Ok(v) = s.parse::<u64>() {
                return v;
            }
        }
        fnv1a(test_name.as_bytes())
    }

    pub fn cases_override() -> Option<u32> {
        std::env::var("PROPTEST_CASES").ok()?.parse().ok()
    }

    pub fn case_rng(seed: u64, case: u32) -> TestRng {
        // Decorrelate cases while keeping the whole run a function of the
        // base seed.
        TestRng::from_seed_u64(seed ^ ((case as u64).wrapping_mul(0x9e3779b97f4a7c15)))
    }
}

/// Test-runner configuration (only `cases` is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of values for property tests. Unlike upstream proptest a
/// strategy here is just a random generator — there is no value tree and
/// no shrinking.
pub trait Strategy {
    type Value: Debug;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            f,
            whence,
        }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: std::rc::Rc::new(self),
        }
    }
}

/// Object-safe adapter so heterogeneous strategies can share one element
/// type (used by `prop_oneof!`).
trait DynStrategy {
    type Value;
    fn dyn_new_value(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> DynStrategy for S {
    type Value = S::Value;
    fn dyn_new_value(&self, rng: &mut TestRng) -> Self::Value {
        self.new_value(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V> {
    inner: std::rc::Rc<dyn DynStrategy<Value = V>>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: self.inner.clone(),
        }
    }
}

impl<V: Debug> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn new_value(&self, rng: &mut TestRng) -> V {
        self.inner.dyn_new_value(rng)
    }
}

/// `.prop_map` combinator.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// `.prop_filter` combinator (rejection sampling with a retry cap).
pub struct Filter<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.new_value(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter '{}' rejected 1000 candidates", self.whence);
    }
}

/// A strategy producing a single constant value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1) as u64;
                if span == 0 {
                    // Full 64-bit domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized + Debug {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Mostly ASCII; occasionally any scalar value.
        if rng.below(4) == 0 {
            loop {
                if let Some(c) = char::from_u32((rng.next_u64() & 0x10_ffff) as u32) {
                    return c;
                }
            }
        } else {
            (0x20u8 + rng.below(0x5f) as u8) as char
        }
    }
}

macro_rules! impl_arbitrary_tuple {
    ($(($($a:ident),+))*) => {$(
        impl<$($a: Arbitrary),+> Arbitrary for ($($a,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($a::arbitrary(rng),)+)
            }
        }
    )*};
}
impl_arbitrary_tuple! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
}

/// The `any::<T>()` strategy.
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub mod sample {
    use super::{Arbitrary, TestRng};

    /// An index into a collection whose length is only known at use time.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Map onto `[0, len)`; `len` must be nonzero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index(0)");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::fmt::Debug;
    use std::ops::Range;

    /// Size bounds for collection strategies (`len` in `[lo, hi)`).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi - self.lo) as u64) as usize
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord + Debug,
    {
        type Value = BTreeSet<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut out = BTreeSet::new();
            // The element domain may be smaller than `target`; bound the
            // attempts so generation always terminates.
            for _ in 0..target.saturating_mul(20).max(64) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.new_value(rng));
            }
            out
        }
    }
}

pub mod prelude {
    /// Upstream exposes the crate under the alias `prop` in the prelude
    /// (e.g. `prop::sample::Index`).
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        let arms = vec![$($crate::Strategy::boxed($arm)),+];
        $crate::OneOf { arms }
    }};
}

/// Uniform choice among type-erased strategies (`prop_oneof!`).
pub struct OneOf<V> {
    pub arms: Vec<BoxedStrategy<V>>,
}

impl<V: Debug> Strategy for OneOf<V> {
    type Value = V;
    fn new_value(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].new_value(rng)
    }
}

#[macro_export]
macro_rules! proptest {
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let cases = $crate::runtime::cases_override().unwrap_or(config.cases);
            let seed = $crate::runtime::seed_for(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cases {
                let mut rng = $crate::runtime::case_rng(seed, case);
                $(let $arg = $crate::Strategy::new_value(&($strat), &mut rng);)+
                let repro = format!(
                    concat!("proptest case {}/{} (seed {}) failed:", $(concat!("\n  ", stringify!($arg), " = {:?}"),)+),
                    case + 1, cases, seed, $(&$arg),+
                );
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    $body
                }));
                if let Err(payload) = result {
                    eprintln!("{}", repro);
                    std::panic::resume_unwind(payload);
                }
            }
        }
    )*};
    // With a leading config attribute.
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    // Without one: default config.
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Toy {
        A(u8),
        B,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u64..17, y in 0i64..=4, pair in any::<(u64, u64)>()) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0..=4).contains(&y));
            let _ = pair;
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![
            (0u8..10).prop_map(Toy::A),
            Just(Toy::B),
        ]) {
            match v {
                Toy::A(n) => prop_assert!(n < 10),
                Toy::B => {}
            }
        }

        #[test]
        fn collections_respect_sizes(
            v in prop::collection::vec(0u64..100, 2..8),
            s in prop::collection::btree_set(0u64..1000, 1..10),
            ix in any::<prop::sample::Index>(),
        ) {
            prop_assert!((2..8).contains(&v.len()));
            prop_assert!(!s.is_empty() && s.len() < 10);
            prop_assert!(ix.index(v.len()) < v.len());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::runtime::case_rng(99, 0);
        let mut b = crate::runtime::case_rng(99, 0);
        let s = crate::collection::vec(0u64..1000, 3..9);
        assert_eq!(
            crate::Strategy::new_value(&s, &mut a),
            crate::Strategy::new_value(&s, &mut b)
        );
    }
}
