//! The experiment query-name codec (§3.3).
//!
//! Every probe query is for `ts.src.dst.asn.kw.<suffix>` where
//!
//! * `ts` — send timestamp (simulated nanoseconds, label `t<ns>`): makes
//!   every name globally unique (never a cache hit) and lets the analysis
//!   compute a query's *lifetime* (§3.6.3),
//! * `src` — the spoofed source address (label `s<addr>` with `-`
//!   separators),
//! * `dst` — the target address (`d<addr>`),
//! * `asn` — the target's ASN (`a<asn>`),
//! * `kw` — the experiment keyword,
//! * `<suffix>` — one of the experiment zones: the main `dns-lab.org`
//!   (reachability), `f4.`/`f6.` (IPv4-/IPv6-only follow-ups), or `tcp.`
//!   (the TC=1 zone forcing DNS-over-TCP).
//!
//! A query observed at the authoritative servers that carries all five
//! labels decodes to an [`ExperimentTag`]; queries cut short by QNAME
//! minimization decode to [`Decoded::Partial`] (§3.6.4).

use bcd_dnswire::{Name, MAX_NAME_WIRE_LEN};
use bcd_netsim::SimTime;
use std::fmt;
use std::io::{self, Write as _};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Which experiment zone a name belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuffixKind {
    /// `dns-lab.org` — the initial reachability probes.
    Main,
    /// `f4.dns-lab.org` — delegated with IPv4-only glue.
    F4,
    /// `f6.dns-lab.org` — delegated with IPv6-only glue.
    F6,
    /// `tcp.dns-lab.org` — answers UDP with TC=1.
    Tcp,
}

/// The decoded identity of a fully-labelled experiment query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentTag {
    /// When the probe was sent.
    pub ts: SimTime,
    /// The spoofed source address used.
    pub src: IpAddr,
    /// The target address.
    pub dst: IpAddr,
    /// The target's ASN (as resolved at planning time).
    pub asn: u32,
    pub suffix: SuffixKind,
}

/// Outcome of decoding an authoritative-side query name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// All five labels present.
    Full(ExperimentTag),
    /// Under an experiment zone but with fewer labels — the footprint of a
    /// QNAME-minimizing resolver that halted on NXDOMAIN (§3.6.4).
    Partial { suffix: SuffixKind, labels: usize },
    /// Not an experiment name.
    Foreign,
}

/// Encoder/decoder bound to the experiment's zones and keyword.
#[derive(Debug, Clone)]
pub struct QnameCodec {
    kw: String,
    main: Name,
    f4: Name,
    f6: Name,
    tcp: Name,
}

/// An address as a label body: `a-b-c-d` (IPv4, decimal) or eight
/// `-`-separated hex groups (IPv6).
struct DashedAddr(IpAddr);

impl fmt::Display for DashedAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            IpAddr::V4(a) => {
                let o = a.octets();
                write!(f, "{}-{}-{}-{}", o[0], o[1], o[2], o[3])
            }
            IpAddr::V6(a) => {
                let s = a.segments();
                write!(
                    f,
                    "{:x}-{:x}-{:x}-{:x}-{:x}-{:x}-{:x}-{:x}",
                    s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
                )
            }
        }
    }
}

fn decode_addr(label: &str) -> Option<IpAddr> {
    let text = label.strip_prefix(['s', 'd'])?;
    let mut parts = [""; 8];
    let mut n = 0;
    for p in text.split('-') {
        *parts.get_mut(n)? = p;
        n += 1;
    }
    match n {
        4 => {
            let mut o = [0u8; 4];
            for (i, p) in parts[..4].iter().enumerate() {
                o[i] = p.parse().ok()?;
            }
            Some(IpAddr::V4(Ipv4Addr::from(o)))
        }
        8 => {
            let mut s = [0u16; 8];
            for (i, p) in parts.iter().enumerate() {
                s[i] = u16::from_str_radix(p, 16).ok()?;
            }
            Some(IpAddr::V6(Ipv6Addr::from(s)))
        }
        _ => None,
    }
}

impl QnameCodec {
    /// A codec for the experiment zones rooted at `apex` (e.g.
    /// `dns-lab.org`) with keyword `kw`.
    pub fn new(apex: &Name, kw: &str) -> QnameCodec {
        QnameCodec {
            kw: kw.to_string(),
            main: apex.clone(),
            f4: apex.child("f4").unwrap(),
            f6: apex.child("f6").unwrap(),
            tcp: apex.child("tcp").unwrap(),
        }
    }

    /// The zone apex for a suffix kind.
    pub fn suffix_apex(&self, kind: SuffixKind) -> &Name {
        match kind {
            SuffixKind::Main => &self.main,
            SuffixKind::F4 => &self.f4,
            SuffixKind::F6 => &self.f6,
            SuffixKind::Tcp => &self.tcp,
        }
    }

    /// Build the probe name. The five labels are formatted into one stack
    /// buffer ahead of the apex's labels, so this allocates once.
    pub fn encode(
        &self,
        ts: SimTime,
        src: IpAddr,
        dst: IpAddr,
        asn: u32,
        suffix: SuffixKind,
    ) -> Name {
        // Only an oversized keyword can overflow the buffer.
        const FITS: &str = "probe name fits 255 bytes";
        let mut buf = [0u8; MAX_NAME_WIRE_LEN];
        let mut w = io::Cursor::new(&mut buf[..]);
        for text in [
            format_args!("t{}", ts.as_nanos()),
            format_args!("s{}", DashedAddr(src)),
            format_args!("d{}", DashedAddr(dst)),
            format_args!("a{asn}"),
            format_args!("{}", self.kw),
        ] {
            // The length byte is patched in once the text is written.
            let at = w.position() as usize;
            w.write_all(&[0])
                .and_then(|()| w.write_fmt(text))
                .expect(FITS);
            w.get_mut()[at] = (w.position() as usize - at - 1) as u8;
        }
        w.write_all(self.suffix_apex(suffix).wire_labels())
            .expect(FITS);
        let len = w.position() as usize;
        Name::from_wire_labels(&buf[..len]).expect("probe labels are valid")
    }

    /// Decode an observed query name.
    pub fn decode(&self, name: &Name) -> Decoded {
        // Longest suffix match among the four zones (tcp/f4/f6 are below
        // main, so check them first).
        let (suffix, apex) = if name.is_subdomain_of(&self.f4) {
            (SuffixKind::F4, &self.f4)
        } else if name.is_subdomain_of(&self.f6) {
            (SuffixKind::F6, &self.f6)
        } else if name.is_subdomain_of(&self.tcp) {
            (SuffixKind::Tcp, &self.tcp)
        } else if name.is_subdomain_of(&self.main) {
            (SuffixKind::Main, &self.main)
        } else {
            return Decoded::Foreign;
        };
        let extra = name.label_count() - apex.label_count();
        if extra < 5 {
            return Decoded::Partial {
                suffix,
                labels: extra,
            };
        }
        // Labels, leftmost first: ts, src, dst, asn, kw, (apex...); junk
        // labels prepended by others are tolerated.
        let labels = name.labels().skip(extra - 5);
        match self.parse_tag(labels, suffix) {
            Some(tag) => Decoded::Full(tag),
            None => Decoded::Partial {
                suffix,
                labels: extra,
            },
        }
    }

    fn parse_tag<'a>(
        &self,
        labels: impl Iterator<Item = &'a [u8]>,
        suffix: SuffixKind,
    ) -> Option<ExperimentTag> {
        let mut labels = labels.map(std::str::from_utf8);
        let mut next = || labels.next()?.ok();
        let ts = SimTime::from_nanos(next()?.strip_prefix('t')?.parse().ok()?);
        let src = decode_addr(next()?)?;
        let dst = decode_addr(next()?)?;
        let asn = next()?.strip_prefix('a')?.parse().ok()?;
        next()?
            .eq_ignore_ascii_case(&self.kw)
            .then_some(ExperimentTag {
                ts,
                src,
                dst,
                asn,
                suffix,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> QnameCodec {
        QnameCodec::new(&"dns-lab.org".parse().unwrap(), "x7")
    }

    #[test]
    fn round_trip_v4() {
        let c = codec();
        let ts = SimTime::from_nanos(123_456_789_000);
        let src: IpAddr = "10.1.2.3".parse().unwrap();
        let dst: IpAddr = "203.0.113.77".parse().unwrap();
        let name = c.encode(ts, src, dst, 64_500, SuffixKind::Main);
        assert_eq!(
            name.to_string(),
            "t123456789000.s10-1-2-3.d203-0-113-77.a64500.x7.dns-lab.org"
        );
        match c.decode(&name) {
            Decoded::Full(tag) => {
                assert_eq!(tag.ts, ts);
                assert_eq!(tag.src, src);
                assert_eq!(tag.dst, dst);
                assert_eq!(tag.asn, 64_500);
                assert_eq!(tag.suffix, SuffixKind::Main);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn round_trip_v6_and_suffixes() {
        let c = codec();
        let src: IpAddr = "2001:db8::1".parse().unwrap();
        let dst: IpAddr = "2600:1:2:3::42".parse().unwrap();
        for suffix in [
            SuffixKind::F4,
            SuffixKind::F6,
            SuffixKind::Tcp,
            SuffixKind::Main,
        ] {
            let name = c.encode(SimTime::from_secs(9), src, dst, 7, suffix);
            match c.decode(&name) {
                Decoded::Full(tag) => {
                    assert_eq!(tag.src, src);
                    assert_eq!(tag.dst, dst);
                    assert_eq!(tag.suffix, suffix);
                }
                other => panic!("{suffix:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn qmin_partials_are_detected() {
        let c = codec();
        // What a QNAME-minimizing resolver asks first: kw.dns-lab.org.
        let partial: Name = "x7.dns-lab.org".parse().unwrap();
        assert_eq!(
            c.decode(&partial),
            Decoded::Partial {
                suffix: SuffixKind::Main,
                labels: 1
            }
        );
        let deeper: Name = "a64500.x7.dns-lab.org".parse().unwrap();
        assert_eq!(
            c.decode(&deeper),
            Decoded::Partial {
                suffix: SuffixKind::Main,
                labels: 2
            }
        );
        // The apex itself.
        assert_eq!(
            c.decode(&"dns-lab.org".parse().unwrap()),
            Decoded::Partial {
                suffix: SuffixKind::Main,
                labels: 0
            }
        );
    }

    #[test]
    fn foreign_names_are_rejected() {
        let c = codec();
        assert_eq!(
            c.decode(&"www.example.com".parse().unwrap()),
            Decoded::Foreign
        );
        assert_eq!(c.decode(&"dns-lab.com".parse().unwrap()), Decoded::Foreign);
        // Deceptively similar but not a subdomain.
        assert_eq!(c.decode(&"xdns-lab.org".parse().unwrap()), Decoded::Foreign);
    }

    #[test]
    fn wrong_keyword_degrades_to_partial() {
        let c = codec();
        let name: Name = "t1.s10-0-0-1.d10-0-0-2.a5.other.dns-lab.org"
            .parse()
            .unwrap();
        assert!(matches!(c.decode(&name), Decoded::Partial { .. }));
    }

    #[test]
    fn malformed_labels_degrade_to_partial() {
        let c = codec();
        let name: Name = "bogus.s10-0-0-1.d10-0-0-2.a5.x7.dns-lab.org"
            .parse()
            .unwrap();
        assert!(matches!(c.decode(&name), Decoded::Partial { .. }));
        let bad_ip: Name = "t1.s10-0-0.d10-0-0-2.a5.x7.dns-lab.org".parse().unwrap();
        assert!(matches!(c.decode(&bad_ip), Decoded::Partial { .. }));
    }

    #[test]
    fn f4_vs_main_disambiguation() {
        let c = codec();
        let src: IpAddr = "10.0.0.1".parse().unwrap();
        let dst: IpAddr = "10.0.0.2".parse().unwrap();
        let f4_name = c.encode(SimTime::ZERO, src, dst, 1, SuffixKind::F4);
        // The f4 name is also under dns-lab.org; decoding must pick F4.
        match c.decode(&f4_name) {
            Decoded::Full(tag) => assert_eq!(tag.suffix, SuffixKind::F4),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn labels_respect_dns_limits() {
        let c = codec();
        let name = c.encode(
            SimTime::from_nanos(u64::MAX),
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff".parse().unwrap(),
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff".parse().unwrap(),
            u32::MAX,
            SuffixKind::Tcp,
        );
        assert!(name.wire_len() <= 255);
        for l in name.labels() {
            assert!(l.len() <= 63);
        }
    }
}
