//! Differential properties: [`Name`] against a reference model that keeps
//! one `Vec<u8>` per label, the straightforward layout the flat buffer
//! must be indistinguishable from. Every observable — equality, order,
//! hash stream, display, canonical bytes, navigation, constructor errors
//! and wire bytes with and without a shared compression dictionary — is
//! compared over random label sets with mixed case.

use bcd_dnswire::{Name, NameError, WireReader, WireWriter, MAX_NAME_WIRE_LEN};
use proptest::prelude::*;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// The reference: one heap block per label, compared label by label.
#[derive(Debug, Clone)]
struct Model {
    labels: Vec<Vec<u8>>,
}

impl Model {
    fn from_labels(labels: &[Vec<u8>]) -> Result<Model, NameError> {
        for l in labels {
            if l.is_empty() || l.len() > 63 {
                return Err(NameError::BadLabel(String::from_utf8_lossy(l).into_owned()));
            }
        }
        let m = Model {
            labels: labels.to_vec(),
        };
        if m.wire_len() > MAX_NAME_WIRE_LEN {
            return Err(NameError::TooLong);
        }
        Ok(m)
    }

    fn wire_len(&self) -> usize {
        1 + self.labels.iter().map(|l| 1 + l.len()).sum::<usize>()
    }

    fn suffix(&self, n: usize) -> Model {
        let keep = n.min(self.labels.len());
        Model {
            labels: self.labels[self.labels.len() - keep..].to_vec(),
        }
    }

    fn parent(&self) -> Model {
        self.suffix(self.labels.len().saturating_sub(1))
    }

    fn child(&self, label: &[u8]) -> Result<Model, NameError> {
        let mut labels = vec![label.to_vec()];
        labels.extend(self.labels.iter().cloned());
        Model::from_labels(&labels)
    }

    fn eq(&self, other: &Model) -> bool {
        self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(&other.labels)
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }

    fn is_subdomain_of(&self, other: &Model) -> bool {
        other.labels.len() <= self.labels.len() && self.suffix(other.labels.len()).eq(other)
    }

    fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for l in &self.labels {
            out.extend(l.iter().map(u8::to_ascii_lowercase));
            out.push(b'.');
        }
        if out.is_empty() {
            out.push(b'.');
        }
        out
    }

    fn hash_stream(&self) -> Vec<Vec<u8>> {
        let mut h = Recorder::default();
        for l in &self.labels {
            h.write_usize(l.len());
            for b in l {
                h.write_u8(b.to_ascii_lowercase());
            }
        }
        h.0
    }

    fn display(&self) -> String {
        if self.labels.is_empty() {
            return ".".into();
        }
        let mut s = String::new();
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                s.push('.');
            }
            for &b in l {
                if b == b'.' || b == b'\\' {
                    write!(s, "\\{}", b as char).unwrap();
                } else if (0x20..0x7F).contains(&b) {
                    s.push(b as char);
                } else {
                    write!(s, "\\{b:03}").unwrap();
                }
            }
        }
        s
    }

    fn encode_uncompressed(&self, out: &mut Vec<u8>) {
        for l in &self.labels {
            out.push(l.len() as u8);
            out.extend_from_slice(l);
        }
        out.push(0);
    }
}

/// The classic compression dictionary: lowercased label suffix → offset
/// of its first occurrence (offsets past the 14-bit pointer range are
/// never remembered).
#[derive(Default)]
struct ModelWriter {
    buf: Vec<u8>,
    dict: HashMap<Vec<Vec<u8>>, usize>,
}

impl ModelWriter {
    fn encode(&mut self, m: &Model) {
        for i in 0..m.labels.len() {
            let key: Vec<Vec<u8>> = m.labels[i..]
                .iter()
                .map(|l| l.to_ascii_lowercase())
                .collect();
            if let Some(&off) = self.dict.get(&key) {
                self.buf
                    .extend_from_slice(&(0xC000 | off as u16).to_be_bytes());
                return;
            }
            if self.buf.len() <= 0x3FFF {
                self.dict.insert(key, self.buf.len());
            }
            self.buf.push(m.labels[i].len() as u8);
            self.buf.extend_from_slice(&m.labels[i]);
        }
        self.buf.push(0);
    }
}

/// Records every write a `Hash` impl makes, boundaries included.
#[derive(Default)]
struct Recorder(Vec<Vec<u8>>);

impl Hasher for Recorder {
    fn finish(&self) -> u64 {
        0
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0.push(bytes.to_vec());
    }
}

fn hash_stream(n: &Name) -> Vec<Vec<u8>> {
    let mut h = Recorder::default();
    n.hash(&mut h);
    h.0
}

fn labels_of(n: &Name) -> Vec<Vec<u8>> {
    n.labels().map(<[u8]>::to_vec).collect()
}

fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        b'a'..=b'z',
        b'A'..=b'Z',
        b'0'..=b'9',
        Just(b'-'),
        // Rare bytes: ones Display escapes, and ones that read as label
        // lengths if a comparison loses track of label boundaries.
        prop::sample::select(vec![b'.', b'\\', 0x07, 0xFF, 0x01, 0x02, 0x03]),
    ]
}

fn label() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(byte(), 1..=6),
        prop::collection::vec(byte(), 1..=63),
    ]
}

/// A label that may be empty, long or over-long; lists of these often
/// outgrow 255 bytes before (or after) their first bad label.
fn any_label() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        label(),
        prop::collection::vec(byte(), 40..=63),
        prop::collection::vec(byte(), 40..=63),
        Just(Vec::new()),
        prop::collection::vec(byte(), 64..=70),
    ]
}

/// A label list that fits in a name: leading labels are dropped until the
/// wire length is at most 255.
fn labels() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(label(), 0..=8).prop_map(|mut ls| {
        while 1 + ls.iter().map(|l| 1 + l.len()).sum::<usize>() > MAX_NAME_WIRE_LEN {
            ls.remove(0);
        }
        ls
    })
}

/// Flip the case of the letters chosen by `mask`.
fn recase(labels: &[Vec<u8>], mask: u64) -> Vec<Vec<u8>> {
    let mut bit = 0;
    labels
        .iter()
        .map(|l| {
            l.iter()
                .map(|&b| {
                    bit = (bit + 1) % 64;
                    if mask >> bit & 1 == 1 && b.is_ascii_alphabetic() {
                        b ^ 0x20
                    } else {
                        b
                    }
                })
                .collect()
        })
        .collect()
}

/// A second label list related to `a`: its rightmost `keep` labels,
/// recased, under up to a few fresh labels. Covers equal, subdomain,
/// ancestor and unrelated pairs.
fn related(
    a: &[Vec<u8>],
    keep: usize,
    mask: u64,
    fresh: Vec<Vec<u8>>,
    n_fresh: usize,
) -> Vec<Vec<u8>> {
    let keep = keep.min(a.len());
    let mut b: Vec<Vec<u8>> = fresh.into_iter().take(n_fresh).collect();
    b.extend(recase(&a[a.len() - keep..], mask));
    while 1 + b.iter().map(|l| 1 + l.len()).sum::<usize>() > MAX_NAME_WIRE_LEN {
        b.remove(0);
    }
    b
}

/// Labels parsed from uncompressed wire form without the root byte, if
/// the bytes are well formed.
fn parse_flat(mut flat: &[u8]) -> Option<Vec<Vec<u8>>> {
    let mut labels = Vec::new();
    while let Some((&len, rest)) = flat.split_first() {
        let len = len as usize;
        if len == 0 || len > 63 || len > rest.len() {
            return None;
        }
        labels.push(rest[..len].to_vec());
        flat = &rest[len..];
    }
    Some(labels)
}

/// The first well-formed tail of `a`'s wire bytes at or after `cut`: a
/// real suffix when the cut lands on a label boundary, otherwise a name
/// whose wire bytes end `a`'s without being one of its suffixes.
fn wire_tail(a: &[Vec<u8>], cut: usize) -> Vec<Vec<u8>> {
    let mut flat = Vec::new();
    Model::from_labels(a)
        .unwrap()
        .encode_uncompressed(&mut flat);
    flat.pop();
    (cut % (flat.len() + 1)..=flat.len())
        .find_map(|at| parse_flat(&flat[at..]))
        .expect("the empty tail parses")
}

fn pair() -> impl Strategy<Value = (Vec<Vec<u8>>, Vec<Vec<u8>>)> {
    (
        labels(),
        0usize..=9,
        any::<u64>(),
        prop::collection::vec(label(), 3),
        prop_oneof![Just(0usize), 0usize..=3],
        prop_oneof![Just(None), (0usize..=255).prop_map(Some)],
    )
        .prop_map(|(a, keep, mask, fresh, n_fresh, cut)| {
            let b = match cut {
                Some(cut) => recase(&wire_tail(&a, cut), mask),
                None => related(&a, keep, mask, fresh, n_fresh),
            };
            (a, b)
        })
}

fn build(ls: &[Vec<u8>]) -> (Name, Model) {
    (
        Name::from_labels(ls).unwrap(),
        Model::from_labels(ls).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Single-name observables equal the model's.
    #[test]
    fn single_name_matches_model(ls in labels(), k in 0usize..=10) {
        let (n, m) = build(&ls);
        prop_assert_eq!(labels_of(&n), m.labels.clone());
        prop_assert_eq!(n.label_count(), m.labels.len());
        prop_assert_eq!(n.is_root(), m.labels.is_empty());
        prop_assert_eq!(n.first_label().map(<[u8]>::to_vec), m.labels.first().cloned());
        prop_assert_eq!(n.wire_len(), m.wire_len());
        prop_assert_eq!(n.to_string(), m.display());
        prop_assert_eq!(n.canonical_bytes(), m.canonical_bytes());
        let mut buf = [0u8; MAX_NAME_WIRE_LEN];
        let len = n.canonical_into(&mut buf);
        prop_assert_eq!(buf[..len].to_vec(), m.canonical_bytes());
        prop_assert_eq!(hash_stream(&n), m.hash_stream());
        prop_assert_eq!(labels_of(&n.parent()), m.parent().labels);
        prop_assert_eq!(labels_of(&n.suffix(k)), m.suffix(k).labels);
        prop_assert_eq!(labels_of(&n.clone()), m.labels.clone());
        let mut flat = Vec::new();
        m.encode_uncompressed(&mut flat);
        prop_assert_eq!(n.wire_labels(), &flat[..flat.len() - 1]);
        prop_assert_eq!(labels_of(&Name::from_wire_labels(n.wire_labels()).unwrap()), m.labels);
    }

    /// Pairwise observables: equality, order, subdomain relation.
    #[test]
    fn pairs_match_model((a, b) in pair()) {
        let (na, ma) = build(&a);
        let (nb, mb) = build(&b);
        prop_assert_eq!(na == nb, ma.eq(&mb));
        prop_assert_eq!(na.cmp(&nb), ma.canonical_bytes().cmp(&mb.canonical_bytes()));
        prop_assert_eq!(na.is_subdomain_of(&nb), ma.is_subdomain_of(&mb));
        prop_assert_eq!(nb.is_subdomain_of(&na), mb.is_subdomain_of(&ma));
        if na == nb {
            prop_assert_eq!(hash_stream(&na), hash_stream(&nb));
        }
    }

    /// Constructors fail exactly when, and how, the model does.
    #[test]
    fn constructor_errors_match_model(
        ls in prop::collection::vec(any_label(), 0..=8),
        extra in any_label(),
    ) {
        let got = Name::from_labels(&ls).map(|n| labels_of(&n));
        prop_assert_eq!(got, Model::from_labels(&ls).map(|m| m.labels));
        if let (Ok(n), Ok(m)) = (Name::from_labels(&ls), Model::from_labels(&ls)) {
            let got = n.child(&extra).map(|c| labels_of(&c));
            prop_assert_eq!(got, m.child(&extra).map(|c| c.labels));
        }
    }

    /// Wire bytes: compressed into one shared writer (after a pad that may
    /// straddle the 14-bit pointer range), alone in fresh writers, and
    /// uncompressed; every name decodes back.
    #[test]
    fn encoding_matches_model(
        (a, b) in pair(),
        (c, d) in pair(),
        pad in prop_oneof![Just(0usize), 0usize..=40, 0x3FC0usize..=0x4010],
    ) {
        let names = [a, b, c, d];
        let mut w = WireWriter::new();
        let mut mw = ModelWriter::default();
        w.bytes(&vec![0u8; pad]);
        mw.buf.resize(pad, 0);
        let mut starts = Vec::new();
        for ls in &names {
            let (n, m) = build(ls);
            starts.push(w.len());
            n.encode(&mut w);
            mw.encode(&m);
            prop_assert_eq!(w.as_bytes(), mw.buf.as_slice());

            let mut alone = WireWriter::new();
            let mut model_alone = ModelWriter::default();
            n.encode(&mut alone);
            model_alone.encode(&m);
            prop_assert_eq!(alone.as_bytes(), model_alone.buf.as_slice());
            let back = Name::decode(&mut WireReader::new(alone.as_bytes())).unwrap();
            prop_assert_eq!(labels_of(&back), m.labels.clone());

            let mut plain = WireWriter::new();
            let mut model_plain = Vec::new();
            n.encode_uncompressed(&mut plain);
            m.encode_uncompressed(&mut model_plain);
            prop_assert_eq!(plain.into_bytes(), model_plain);
        }
        // Through pointers a name comes back spelled as the first
        // occurrence of its suffix, so compare case-insensitively.
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        for (ls, &at) in names.iter().zip(&starts) {
            r.seek(at).unwrap();
            prop_assert!(Name::decode(&mut r).unwrap().eq(&build(ls).0));
        }
        prop_assert_eq!(r.remaining(), 0);
    }
}
