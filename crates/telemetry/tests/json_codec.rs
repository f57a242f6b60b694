//! Seeded property and mutation tests for the `Json` codec.
//!
//! - *Round trip:* random documents (deep nesting, empty containers,
//!   escapes, control and non-ASCII characters, `u64::MAX`, finite
//!   floats down to `-0.0` and subnormals) satisfy
//!   `parse(render(v)) == v` bit for bit, and rendering is a fixpoint.
//! - *Mutation:* byte flips, truncations, insertions and deletions of
//!   the committed golden checkpoints end in `Ok` or `Err` through
//!   `Json::parse` → `checkpoint_from_json`, never in a panic.
//! - *Field mutation:* edits of the decoded golden checkpoint and
//!   snapshot trees (a dropped or duplicated field, a value of another
//!   type, an out-of-range number, a shortened fixed-size array, an
//!   unknown line state) decode to `Ok` or to an `Err` that names the
//!   edited field's path, never to a panic.
//! - *Scale:* a multi-megabyte document round-trips; a parser that is
//!   quadratic in the input would take minutes on it.
//!
//! Runs under `decache_rng::testing::check`; a failure prints a
//! replayable seed (`DECACHE_TEST_SEED=<seed>`).

use decache_rng::testing::check;
use decache_rng::Rng;
use decache_telemetry::json::MAX_DEPTH;
use decache_telemetry::{checkpoint_from_json, Json, MetricsSnapshot};

const GOLDENS: [(&str, &str); 2] = [
    (
        "checkpoint_rb_2pe",
        include_str!("../../../tests/golden/checkpoint_rb_2pe.json"),
    ),
    (
        "checkpoint_rwb_2pe",
        include_str!("../../../tests/golden/checkpoint_rwb_2pe.json"),
    ),
];

const SNAPSHOT: &str = include_str!("golden/snapshot_rwb_2pe.json");

/// Containers a random tree nests at most, before any deep chain.
const TREE_DEPTH: usize = 6;

/// Bit-exact equality: `PartialEq` holds `-0.0 == 0.0`.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::F64(x), Json::F64(y)) => x.to_bits() == y.to_bits(),
        (Json::Array(xs), Json::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Json::Object(xs), Json::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

fn random_char(rng: &mut Rng) -> char {
    const POOL: [char; 20] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
        '\u{7f}', 'é', '\u{2028}', '\u{fffd}', '😀', '𝄞',
    ];
    if rng.gen_bool(0.75) {
        return *rng.choose(&POOL);
    }
    loop {
        if let Some(c) = char::from_u32(rng.gen_range(0u32..=0x10_ffff)) {
            return c;
        }
    }
}

fn random_string(rng: &mut Rng) -> String {
    let len = rng.gen_range(0usize..=12);
    (0..len).map(|_| random_char(rng)).collect()
}

fn random_f64(rng: &mut Rng) -> f64 {
    const SPECIAL: [f64; 9] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        0.1,
        1.0,
    ];
    match rng.gen_range(0u32..3) {
        0 => *rng.choose(&SPECIAL),
        // Exponent bits zero: a subnormal (or a signed zero).
        1 => f64::from_bits(rng.next_u64() & 0x800f_ffff_ffff_ffff),
        _ => loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                break v;
            }
        },
    }
}

fn random_scalar(rng: &mut Rng) -> Json {
    match rng.gen_range(0u32..6) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::U64(match rng.gen_range(0u32..3) {
            0 => u64::MAX,
            1 => rng.gen_range(0u64..1000),
            _ => rng.next_u64(),
        }),
        3 => Json::F64(random_f64(rng)),
        _ => Json::Str(random_string(rng)),
    }
}

/// A random tree of at most `budget` containers, nesting at most
/// [`TREE_DEPTH`] deep; containers may be empty.
fn random_tree(rng: &mut Rng, budget: &mut u32, depth: usize) -> Json {
    if *budget == 0 || depth == TREE_DEPTH || rng.gen_bool(0.3) {
        return random_scalar(rng);
    }
    *budget -= 1;
    let len = rng.gen_range(0usize..=5);
    if rng.gen_bool(0.5) {
        Json::Array(
            (0..len)
                .map(|_| random_tree(rng, budget, depth + 1))
                .collect(),
        )
    } else {
        Json::Object(
            (0..len)
                .map(|_| (random_string(rng), random_tree(rng, budget, depth + 1)))
                .collect(),
        )
    }
}

/// A random document; one in four is wrapped in a chain of single-child
/// containers reaching up to [`MAX_DEPTH`].
fn random_document(rng: &mut Rng) -> Json {
    let mut doc = random_tree(rng, &mut 40, 0);
    if rng.gen_bool(0.25) {
        for _ in 0..rng.gen_range(1..=MAX_DEPTH - TREE_DEPTH) {
            doc = if rng.gen_bool(0.5) {
                Json::Array(vec![doc])
            } else {
                Json::Object(vec![(random_string(rng), doc)])
            };
        }
    }
    doc
}

#[test]
fn random_documents_round_trip_bit_exactly() {
    check("json_round_trip", 512, |rng| {
        let doc = random_document(rng);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert!(same(&back, &doc), "{text}\nparsed as {back:?}");
        assert_eq!(back.to_string(), text, "rendering is not a fixpoint");
    });
}

/// Applies one to four byte flips, truncations, insertions or deletions.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    const INSERTS: &[u8] = b"{}[],:\"\\u0123456789abcdefnull-+.eE \t";
    for _ in 0..rng.gen_range(1u32..=4) {
        if bytes.is_empty() {
            return;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0u32..7) {
            0 | 1 => bytes[at] ^= 1 << rng.gen_range(0u32..8),
            2 | 3 => {
                let byte = if rng.gen_bool(0.8) {
                    *rng.choose(INSERTS)
                } else {
                    rng.gen_range(0u8..=255)
                };
                bytes.insert(at, byte);
            }
            4 | 5 => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
}

#[test]
fn mutated_golden_checkpoints_decode_or_fail_without_panicking() {
    for (name, golden) in GOLDENS {
        let value = Json::parse(golden).unwrap();
        checkpoint_from_json(&value).unwrap();
        let (mut ok, mut err) = (0u32, 0u32);
        check(&format!("json_mutation_{name}"), 1024, |rng| {
            let mut bytes = golden.as_bytes().to_vec();
            mutate(rng, &mut bytes);
            // A checkpoint file is read as text: invalid UTF-8 becomes
            // replacement characters for the parser to see.
            let text = String::from_utf8_lossy(&bytes);
            match Json::parse(&text).and_then(|v| checkpoint_from_json(&v)) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        });
        // Both outcomes occur: mutations inside string values or digits
        // can leave a decodable checkpoint; most break it.
        assert!(err > 0, "{name}: no mutation was rejected ({ok} decoded)");
    }
}

/// A member or element of a decoded tree: its field path, rendered as
/// decode errors render it, and the child positions leading to it.
struct Node {
    path: String,
    at: Vec<usize>,
    integer: bool,
}

fn nodes(value: &Json, path: &str, at: &mut Vec<usize>, out: &mut Vec<Node>) {
    let children: Vec<(String, &Json)> = match value {
        Json::Object(fields) => fields
            .iter()
            .map(|(key, v)| match path {
                "" => (key.clone(), v),
                _ => (format!("{path}.{key}"), v),
            })
            .collect(),
        Json::Array(items) => items
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("{path}[{i}]"), v))
            .collect(),
        _ => return,
    };
    for (i, (child, v)) in children.into_iter().enumerate() {
        at.push(i);
        nodes(v, &child, at, out);
        out.push(Node {
            path: child,
            at: at.clone(),
            integer: matches!(v, Json::U64(_)),
        });
        at.pop();
    }
}

/// The container holding the node at `at`.
fn parent<'a>(root: &'a mut Json, at: &[usize]) -> &'a mut Json {
    at[..at.len() - 1].iter().fold(root, |node, &i| match node {
        Json::Object(fields) => &mut fields[i].1,
        Json::Array(items) => &mut items[i],
        _ => unreachable!("a path runs through containers"),
    })
}

fn node<'a>(root: &'a mut Json, at: &[usize]) -> &'a mut Json {
    let last = at[at.len() - 1];
    match parent(root, at) {
        Json::Object(fields) => &mut fields[last].1,
        Json::Array(items) => &mut items[last],
        _ => unreachable!("a path runs through containers"),
    }
}

fn key(n: &Node) -> &str {
    let tail = n.path.rsplit('.').next().unwrap_or(&n.path);
    tail.split('[').next().unwrap_or(tail)
}

/// Applies one field-aware edit to `tree`; returns the edited field's
/// path.
fn mutate_field(rng: &mut Rng, tree: &mut Json) -> String {
    let mut all = Vec::new();
    nodes(tree, "", &mut Vec::new(), &mut all);
    let pick = |rng: &mut Rng, keep: &dyn Fn(&Node) -> bool| {
        let matching: Vec<&Node> = all.iter().filter(|n| keep(n)).collect();
        (!matching.is_empty()).then(|| *rng.choose(&matching))
    };
    let member = |n: &Node| !n.path.ends_with(']');
    let edit = rng.gen_range(0u32..6);
    let target = match edit {
        0 | 1 => pick(rng, &member),
        2 => pick(rng, &|n| n.integer),
        3 => pick(rng, &|n| {
            matches!(key(n), "rng_state" | "counts") && member(n)
        }),
        4 => pick(rng, &|n| key(n) == "state" && member(n)),
        _ => None,
    };
    // A document without the targeted kind of field gets a type swap.
    let (edit, target) = match target {
        Some(target) => (edit, target),
        None => (5, rng.choose(&all)),
    };
    let at = &target.at;
    let last = at[at.len() - 1];
    match (edit, parent(tree, at)) {
        (0, Json::Object(fields)) => {
            fields.remove(last);
        }
        (1, Json::Object(fields)) => {
            let copy = fields[last].clone();
            fields.insert(last + 1, copy);
        }
        (2, _) => {
            *node(tree, at) = Json::U64(*rng.choose(&[u64::MAX, 1 << 40, 65_536]));
        }
        (3, _) => {
            if let Json::Array(items) = node(tree, at) {
                items.truncate(rng.gen_range(0..items.len().max(1)));
            }
        }
        (4, _) => *node(tree, at) = Json::Str("F999".to_owned()),
        _ => {
            let value = node(tree, at);
            let others: Vec<Json> = [
                Json::Null,
                Json::Bool(true),
                Json::U64(7),
                Json::F64(0.5),
                Json::Str("x".to_owned()),
                Json::Array(Vec::new()),
                Json::Object(Vec::new()),
            ]
            .into_iter()
            .filter(|v| std::mem::discriminant(v) != std::mem::discriminant(value))
            .collect();
            *value = rng.choose(&others).clone();
        }
    }
    target.path.clone()
}

#[test]
fn field_mutations_decode_or_name_the_edited_field() {
    type Decode = fn(&Json) -> Result<(), String>;
    let checkpoint: Decode = |v| checkpoint_from_json(v).map(drop);
    let snapshot: Decode = |v| MetricsSnapshot::from_json(v).map(drop);
    let documents = GOLDENS
        .iter()
        .map(|&(name, text)| (name, text, checkpoint))
        .chain([("snapshot_rwb_2pe", SNAPSHOT, snapshot)]);
    for (name, text, decode) in documents {
        let golden = Json::parse(text).unwrap();
        decode(&golden).unwrap();
        let (mut ok, mut err) = (0u32, 0u32);
        check(&format!("field_mutation_{name}"), 256, |rng| {
            let mut tree = golden.clone();
            let path = mutate_field(rng, &mut tree);
            match decode(&tree) {
                Ok(()) => ok += 1,
                Err(e) => {
                    assert!(
                        e.starts_with(&format!("{path}: ")),
                        "editing {path} failed without naming it: {e}"
                    );
                    err += 1;
                }
            }
        });
        assert!(err > 0, "{name}: no edit was rejected ({ok} decoded)");
    }
}

#[test]
fn multi_megabyte_documents_round_trip() {
    // A 4 MiB string with escapes and multi-byte characters, plus a
    // 1 Mi-element integer array: about 20 MB of text. Linear parsing
    // takes well under a second; a parser that rescans the rest of the
    // input per character would run for minutes.
    let chunk = "plain ASCII, é and 😀, a \"quote\", a \\ and a\nnewline; ";
    let text: String = chunk.repeat((4 << 20) / chunk.len() + 1);
    assert!(text.len() >= 4 << 20);
    let ints: Vec<Json> = (0..1u64 << 20)
        .map(|i| Json::U64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    let doc = Json::object(vec![("text", Json::Str(text)), ("ints", Json::Array(ints))]);
    let rendered = doc.to_string();
    let back = Json::parse(&rendered).unwrap();
    assert!(back == doc, "the large document did not round-trip");
    assert!(back.to_string() == rendered, "rendering is not a fixpoint");
}
