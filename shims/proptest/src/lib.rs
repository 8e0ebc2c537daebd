//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace's property tests
//! use: the `proptest!` runner macro with `proptest_config`, strategies for
//! integer/float ranges, a small regex-string subset, tuples, `Just`,
//! `any::<T>()`, `prop_map`/`prop_filter`, `prop_oneof!`,
//! `prop::collection::vec`, `prop::option::of`, and the assertion macros.
//!
//! Differences from real proptest: no shrinking (a failing case reports the
//! assertion message only), and the RNG is seeded deterministically from the
//! test's module path + name, so runs are reproducible.

#![forbid(unsafe_code)]

pub mod test_runner {
    /// Deterministic xoshiro256++ generator for test-case sampling.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        pub fn seeded(seed: u64) -> Self {
            let mut sm = seed;
            TestRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }

        /// Seed from the fully qualified test name (FNV-1a hash), so each
        /// test gets a stable, distinct stream.
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self::seeded(h)
        }

        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform in [0, n); n must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Uniform f64 in [0, 1).
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// `ProptestConfig` stand-in; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Outcome of one test-case execution.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// Assertion failure — aborts the whole test with this message.
        Fail(String),
        /// `prop_assume!` rejection — the case is discarded and retried.
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values for property tests.
    ///
    /// `sample_one` returns `None` when a filter rejected the draw; the
    /// runner retries with fresh randomness (no shrinking in this shim).
    pub trait Strategy {
        type Value;

        fn sample_one(&self, rng: &mut TestRng) -> Option<Self::Value>;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        fn prop_filter<F>(self, _reason: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { source: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Type-erased strategy (no shrinking, so a plain trait object works).
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample_one(&self, rng: &mut TestRng) -> Option<T> {
            self.0.sample_one(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample_one(&self, _rng: &mut TestRng) -> Option<T> {
            Some(self.0.clone())
        }
    }

    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample_one(&self, rng: &mut TestRng) -> Option<O> {
            self.source.sample_one(rng).map(&self.f)
        }
    }

    pub struct Filter<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn sample_one(&self, rng: &mut TestRng) -> Option<S::Value> {
            self.source.sample_one(rng).filter(|v| (self.f)(v))
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<T>(Vec<BoxedStrategy<T>>);

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union(arms)
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample_one(&self, rng: &mut TestRng) -> Option<T> {
            let idx = rng.below(self.0.len() as u64) as usize;
            self.0[idx].sample_one(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample_one(&self, rng: &mut TestRng) -> Option<$t> {
                    if self.start >= self.end {
                        return None;
                    }
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    Some((self.start as i128 + v as i128) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample_one(&self, rng: &mut TestRng) -> Option<$t> {
                    let (lo, hi) = (*self.start(), *self.end());
                    if lo > hi {
                        return None;
                    }
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let v = (rng.next_u64() as u128) % span;
                    Some((lo as i128 + v as i128) as $t)
                }
            }
        )*};
    }

    impl_int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample_one(&self, rng: &mut TestRng) -> Option<f64> {
            if self.start >= self.end {
                return None;
            }
            Some(self.start + rng.next_f64() * (self.end - self.start))
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn sample_one(&self, rng: &mut TestRng) -> Option<f64> {
            let (lo, hi) = (*self.start(), *self.end());
            if lo > hi {
                return None;
            }
            Some(lo + rng.next_f64() * (hi - lo))
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident.$idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample_one(&self, rng: &mut TestRng) -> Option<Self::Value> {
                    Some(($(self.$idx.sample_one(rng)?,)+))
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }

    // --- regex-subset string strategy ------------------------------------

    /// One element of the pattern: a set of candidate chars plus a repeat
    /// count range.
    struct RegexElem {
        chars: Vec<char>,
        min: u32,
        max: u32,
    }

    fn parse_regex_subset(pattern: &str) -> Vec<RegexElem> {
        let mut elems: Vec<RegexElem> = Vec::new();
        let mut it = pattern.chars().peekable();
        while let Some(c) = it.next() {
            match c {
                '[' => {
                    let mut set = Vec::new();
                    let mut prev: Option<char> = None;
                    loop {
                        let c = it
                            .next()
                            .unwrap_or_else(|| panic!("unterminated class in {pattern:?}"));
                        match c {
                            ']' => break,
                            '-' if prev.is_some() && it.peek() != Some(&']') => {
                                let lo = prev.take().unwrap();
                                let hi = it.next().unwrap();
                                for v in lo as u32..=hi as u32 {
                                    set.push(char::from_u32(v).unwrap());
                                }
                            }
                            '\\' => {
                                if let Some(p) = prev.take() {
                                    set.push(p);
                                }
                                prev = Some(it.next().unwrap());
                            }
                            _ => {
                                if let Some(p) = prev.take() {
                                    set.push(p);
                                }
                                prev = Some(c);
                            }
                        }
                    }
                    if let Some(p) = prev {
                        set.push(p);
                    }
                    assert!(!set.is_empty(), "empty char class in {pattern:?}");
                    elems.push(RegexElem {
                        chars: set,
                        min: 1,
                        max: 1,
                    });
                }
                '{' => {
                    let mut spec = String::new();
                    for c in it.by_ref() {
                        if c == '}' {
                            break;
                        }
                        spec.push(c);
                    }
                    let elem = elems
                        .last_mut()
                        .unwrap_or_else(|| panic!("dangling quantifier in {pattern:?}"));
                    if let Some((lo, hi)) = spec.split_once(',') {
                        elem.min = lo.trim().parse().unwrap();
                        elem.max = hi.trim().parse().unwrap();
                    } else {
                        let n: u32 = spec.trim().parse().unwrap();
                        elem.min = n;
                        elem.max = n;
                    }
                }
                '\\' => {
                    let escaped = it.next().unwrap();
                    elems.push(RegexElem {
                        chars: vec![escaped],
                        min: 1,
                        max: 1,
                    });
                }
                _ => elems.push(RegexElem {
                    chars: vec![c],
                    min: 1,
                    max: 1,
                }),
            }
        }
        elems
    }

    /// A `&str` literal acts as a regex-subset strategy producing `String`s,
    /// mirroring proptest's string strategies. Supported syntax: literal
    /// chars, `[a-z0-9_']`-style classes, and `{m}`/`{m,n}` quantifiers.
    impl Strategy for &str {
        type Value = String;
        fn sample_one(&self, rng: &mut TestRng) -> Option<String> {
            let elems = parse_regex_subset(self);
            let mut out = String::new();
            for e in &elems {
                let count = e.min + (rng.below((e.max - e.min + 1) as u64) as u32);
                for _ in 0..count {
                    out.push(e.chars[rng.below(e.chars.len() as u64) as usize]);
                }
            }
            Some(out)
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        fn generate(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T>(PhantomData<T>);

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample_one(&self, rng: &mut TestRng) -> Option<T> {
            Some(T::generate(rng))
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn generate(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for bool {
        fn generate(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn generate(rng: &mut TestRng) -> Self {
            rng.next_f64()
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Sizes accepted by `collection::vec`: a fixed count or a range.
    pub trait IntoSizeRange {
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample_one(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let len = self.min + rng.below((self.max - self.min + 1) as u64) as usize;
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(self.element.sample_one(rng)?);
            }
            Some(out)
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct OptionStrategy<S>(S);

    /// `prop::option::of`: yields `None` a quarter of the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample_one(&self, rng: &mut TestRng) -> Option<Option<S::Value>> {
            if rng.below(4) == 0 {
                Some(None)
            } else {
                self.0.sample_one(rng).map(Some)
            }
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The `prop::` namespace (`prop::collection::vec`, `prop::option::of`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($config); $($rest)*);
    };
    (@impl ($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $config;
            let __strategy = ($($strat,)+);
            let mut __rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            let __max_rejects: u64 = (__config.cases as u64) * 100 + 1000;
            let mut __accepted: u32 = 0;
            let mut __rejected: u64 = 0;
            while __accepted < __config.cases {
                let __sample =
                    $crate::strategy::Strategy::sample_one(&__strategy, &mut __rng);
                let Some(__vals) = __sample else {
                    __rejected += 1;
                    assert!(
                        __rejected <= __max_rejects,
                        "proptest: too many strategy rejections in {}",
                        stringify!($name)
                    );
                    continue;
                };
                let ($($pat,)+) = __vals;
                let __case = move || -> ::std::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                };
                match __case() {
                    Ok(()) => __accepted += 1,
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {
                        __rejected += 1;
                        assert!(
                            __rejected <= __max_rejects,
                            "proptest: too many rejections in {}",
                            stringify!($name)
                        );
                    }
                    Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                        panic!(
                            "proptest case {} of {} failed: {}",
                            __accepted + 1,
                            __config.cases,
                            __msg
                        );
                    }
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::Config::default()); $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: {:?} == {:?}",
            __a,
            __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: {:?} == {:?}: {}",
                    __a,
                    __b,
                    format!($($fmt)+)
                ),
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(*__a != *__b, "assertion failed: {:?} != {:?}", __a, __b);
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond).to_string(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn regex_subset_shapes() {
        let mut rng = TestRng::for_test("regex");
        for _ in 0..200 {
            let s = Strategy::sample_one(&"[a-z][a-z0-9_]{0,8}", &mut rng).unwrap();
            assert!(!s.is_empty() && s.len() <= 9, "{s:?}");
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
            let t = Strategy::sample_one(&"[a-zA-Z' ]{0,12}", &mut rng).unwrap();
            assert!(t.len() <= 12);
            assert!(t
                .chars()
                .all(|c| c.is_ascii_alphabetic() || c == '\'' || c == ' '));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_collections(
            v in prop::collection::vec(-5i64..5, 1..10),
            x in 0.25f64..0.75,
            o in prop::option::of(1u32..4),
            flag in any::<bool>(),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert!(v.iter().all(|&i| (-5..5).contains(&i)));
            prop_assert!((0.25..0.75).contains(&x));
            if let Some(u) = o {
                prop_assert!((1..4).contains(&u));
            }
            prop_assume!(flag || v.len() < 100);
            let choice = prop_oneof![Just(1u8), Just(2u8), (3u8..=4).prop_map(|n| n)];
            let c = Strategy::sample_one(&choice, &mut TestRng::for_test("inner")).unwrap();
            prop_assert!((1..=4).contains(&c));
            prop_assert_eq!(v.len(), v.len());
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(n in 0i32..10) {
            prop_assert!((0..10).contains(&n));
        }
    }
}
