//! DNS wire-format throughput: the hot path of the simulation (every
//! packet's payload is encoded/decoded once per hop endpoint).

use bcd_core::{QnameCodec, SuffixKind};
use bcd_dnswire::{Message, MessageView, Name, RCode, RData, RType, Record, WireWriter};
use bcd_netsim::SimTime;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::net::IpAddr;

fn experiment_query() -> Message {
    Message::query(
        0x1234,
        "t123456789.s10-1-2-3.d203-0-113-77.a64500.x7.dns-lab.org"
            .parse()
            .unwrap(),
        RType::A,
    )
}

fn nxdomain_response() -> Message {
    let q = experiment_query();
    let mut resp = Message::response_to(&q, RCode::NXDomain);
    resp.authorities.push(Record::new(
        "dns-lab.org".parse().unwrap(),
        60,
        RData::Soa(bcd_dnswire::Soa {
            mname: "project.dns-lab.org".parse().unwrap(),
            rname: "contact.dns-lab.org".parse().unwrap(),
            serial: 2019110601,
            refresh: 7200,
            retry: 900,
            expire: 1209600,
            minimum: 60,
        }),
    ));
    resp
}

fn bench(c: &mut Criterion) {
    let query = experiment_query();
    let resp = nxdomain_response();
    let query_bytes = query.encode();
    let resp_bytes = resp.encode();

    c.bench_function("encode_experiment_query", |b| {
        b.iter(|| black_box(&query).encode())
    });
    c.bench_function("decode_experiment_query", |b| {
        b.iter(|| Message::decode(black_box(&query_bytes)).unwrap())
    });
    c.bench_function("encode_nxdomain_response", |b| {
        b.iter(|| black_box(&resp).encode())
    });
    c.bench_function("decode_nxdomain_response", |b| {
        b.iter(|| Message::decode(black_box(&resp_bytes)).unwrap())
    });
    // The zero-copy variants every node uses on the hot path: encoding
    // into a per-node scratch writer (no fresh Vec, no fresh compression
    // map) and header/QNAME inspection through the borrowed view.
    c.bench_function("encode_into_scratch_query", |b| {
        let mut w = WireWriter::new();
        b.iter(|| {
            black_box(&query).encode_into(&mut w);
            black_box(w.as_bytes().len())
        })
    });
    c.bench_function("encode_into_scratch_response", |b| {
        let mut w = WireWriter::new();
        b.iter(|| {
            black_box(&resp).encode_into(&mut w);
            black_box(w.as_bytes().len())
        })
    });
    c.bench_function("view_header_and_qname", |b| {
        b.iter(|| {
            let v = MessageView::parse(black_box(&query_bytes)).unwrap();
            black_box((v.id(), v.qr(), v.question().unwrap()))
        })
    });
    // The per-probe name work: building a probe's unique name, cloning it
    // into logs and maps, and ordering it against a sibling (BTreeMap keys
    // and sorted logs).
    let codec = QnameCodec::new(&"dns-lab.org".parse().unwrap(), "x7");
    let src: IpAddr = "10.1.2.3".parse().unwrap();
    let dst: IpAddr = "203.0.113.77".parse().unwrap();
    let probe = codec.encode(
        SimTime::from_nanos(123_456_789),
        src,
        dst,
        64_500,
        SuffixKind::Main,
    );
    let sibling = codec.encode(
        SimTime::from_nanos(123_456_790),
        src,
        dst,
        64_500,
        SuffixKind::Main,
    );
    c.bench_function("qname_encode", |b| {
        b.iter(|| {
            codec.encode(
                black_box(SimTime::from_nanos(123_456_789)),
                black_box(src),
                black_box(dst),
                64_500,
                SuffixKind::Main,
            )
        })
    });
    c.bench_function("name_clone", |b| b.iter(|| black_box(&probe).clone()));
    c.bench_function("name_cmp", |b| {
        b.iter(|| black_box(&probe).cmp(black_box(&sibling)))
    });
    c.bench_function("name_parse", |b| {
        b.iter(|| {
            "t123.s10-1-2-3.d203-0-113-77.a64500.x7.dns-lab.org"
                .parse::<Name>()
                .unwrap()
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
