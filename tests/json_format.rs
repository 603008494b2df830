//! The JSON the workspace writes and accepts, pinned as literals.
//!
//! Every registry artifact, journal line and record is written and read
//! by the `serde`/`serde_json` shims, so their output bytes are part of
//! every digest the workspace pins, and what they accept or refuse is
//! part of every loader's contract. Goldens elsewhere compare one build's
//! output with itself; this file compares it with fixed strings.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Tuple(u32),
    Struct { a: u8, b: String },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Everything {
    one: f64,
    neg_zero: f64,
    tiny: f64,
    huge: f64,
    sum: f64,
    nan: f64,
    infinite: f64,
    big_integral: f64,
    at_limit: f64,
    negative: f64,
    single: f32,
    max: u64,
    min: i64,
    small: i8,
    flag: bool,
    letter: char,
    escapes: String,
    unicode: String,
    empty_seq: Vec<u32>,
    empty_map: BTreeMap<String, u32>,
    nested: Vec<Vec<f64>>,
    sorted: HashMap<String, Vec<u8>>,
    some: Option<u32>,
    none: Option<String>,
    pair: (u8, f64),
    triple: [u16; 3],
    shapes: Vec<Shape>,
}

fn everything() -> Everything {
    let mut sorted = HashMap::new();
    sorted.insert("zeta".to_string(), vec![3]);
    sorted.insert("alpha".to_string(), vec![]);
    sorted.insert("mid".to_string(), vec![1, 2]);
    Everything {
        one: 1.0,
        neg_zero: -0.0,
        tiny: 1e-7,
        huge: 1e21,
        sum: 0.1 + 0.2,
        nan: f64::NAN,
        infinite: f64::NEG_INFINITY,
        big_integral: 123_456_789_012_345.0,
        at_limit: 1e15,
        negative: -2.5,
        single: 0.1,
        max: u64::MAX,
        min: i64::MIN + 1,
        small: -7,
        flag: true,
        letter: 'λ',
        escapes: "q\" b\\ n\n r\r t\t bell\u{7} us\u{1f} del\u{7f} slash/".to_string(),
        unicode: "ünïcødé ✓ 🚀".to_string(),
        empty_seq: vec![],
        empty_map: BTreeMap::new(),
        nested: vec![vec![1.5], vec![], vec![2.0, 3.25]],
        sorted,
        some: Some(3),
        none: None,
        pair: (9, 0.5),
        triple: [1, 2, 65535],
        shapes: vec![
            Shape::Unit,
            Shape::Tuple(7),
            Shape::Struct {
                a: 1,
                b: "x".to_string(),
            },
        ],
    }
}

const COMPACT: &str = concat!(
    r#"{"one":1.0,"neg_zero":-0.0,"tiny":0.0000001,"huge":1000000000000000000000,"#,
    r#""sum":0.30000000000000004,"nan":null,"infinite":null,"big_integral":123456789012345.0,"#,
    r#""at_limit":1000000000000000,"negative":-2.5,"single":0.10000000149011612,"#,
    r#""max":18446744073709551615,"min":-9223372036854775807,"small":-7,"flag":true,"#,
    r#""letter":"λ","escapes":"q\" b\\ n\n r\r t\t bell\u0007 us\u001f del"#,
    // DEL (0x7f) is not a control character to JSON: written verbatim.
    "\u{7f}",
    r#" slash/","#,
    r#""unicode":"ünïcødé ✓ 🚀","empty_seq":[],"empty_map":{},"nested":[[1.5],[],[2.0,3.25]],"#,
    r#""sorted":{"alpha":[],"mid":[1,2],"zeta":[3]},"some":3,"none":null,"pair":[9,0.5],"#,
    r#""triple":[1,2,65535],"shapes":["Unit",{"Tuple":7},{"Struct":{"a":1,"b":"x"}}]}"#,
);

const PRETTY: &str = concat!(
    r#"{
  "one": 1.0,
  "neg_zero": -0.0,
  "tiny": 0.0000001,
  "huge": 1000000000000000000000,
  "sum": 0.30000000000000004,
  "nan": null,
  "infinite": null,
  "big_integral": 123456789012345.0,
  "at_limit": 1000000000000000,
  "negative": -2.5,
  "single": 0.10000000149011612,
  "max": 18446744073709551615,
  "min": -9223372036854775807,
  "small": -7,
  "flag": true,
  "letter": "λ",
  "escapes": "q\" b\\ n\n r\r t\t bell\u0007 us\u001f del"#,
    "\u{7f}",
    r#" slash/",
  "unicode": "ünïcødé ✓ 🚀",
  "empty_seq": [],
  "empty_map": {},
  "nested": [
    [
      1.5
    ],
    [],
    [
      2.0,
      3.25
    ]
  ],
  "sorted": {
    "alpha": [],
    "mid": [
      1,
      2
    ],
    "zeta": [
      3
    ]
  },
  "some": 3,
  "none": null,
  "pair": [
    9,
    0.5
  ],
  "triple": [
    1,
    2,
    65535
  ],
  "shapes": [
    "Unit",
    {
      "Tuple": 7
    },
    {
      "Struct": {
        "a": 1,
        "b": "x"
      }
    }
  ]
}"#
);

#[test]
fn compact_and_pretty_output_are_pinned() {
    let e = everything();
    assert_eq!(serde_json::to_string(&e).unwrap(), COMPACT);
    assert_eq!(serde_json::to_string_pretty(&e).unwrap(), PRETTY);
}

#[test]
fn pinned_output_reads_back() {
    // NaN and -inf were written as null, which a float field refuses, so
    // they are swapped for numbers; every other field reads back bit for
    // bit.
    for text in [COMPACT, PRETTY] {
        let doc: Value = serde_json::from_str(text).unwrap();
        assert_eq!(doc.get("nan"), Some(&Value::Null));
        assert!(serde_json::from_str::<Everything>(text).is_err());
        let text = text.replacen("null", "1.0", 1).replacen("null", "2.0", 1);
        let got: Everything = serde_json::from_str(&text).unwrap();
        let mut want = everything();
        want.nan = 1.0;
        want.infinite = 2.0;
        assert_eq!(got.neg_zero.to_bits(), (-0.0f64).to_bits());
        assert_eq!(got, want);
    }
}

#[test]
fn value_documents_round_trip() {
    let doc = Value::Map(vec![
        ("s".into(), Value::Str("a\"b".into())),
        (
            "xs".into(),
            Value::Seq(vec![Value::F64(1.5), Value::Null, Value::Bool(false)]),
        ),
        ("u".into(), Value::U64(u64::MAX)),
        ("i".into(), Value::I64(-42)),
        ("m".into(), Value::Map(vec![])),
    ]);
    let text = serde_json::to_string(&doc).unwrap();
    assert_eq!(
        text,
        r#"{"s":"a\"b","xs":[1.5,null,false],"u":18446744073709551615,"i":-42,"m":{}}"#
    );
    assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), doc);
    assert_eq!(doc.get("u"), Some(&Value::U64(u64::MAX)));
    assert_eq!(doc.as_map().map(|m| m.len()), Some(5));
    assert_eq!(Value::Null.as_map(), None);
}

#[test]
fn integer_tokens_stay_exact_until_they_overflow() {
    let v = |s: &str| serde_json::from_str::<Value>(s).unwrap();
    assert_eq!(v("18446744073709551615"), Value::U64(u64::MAX));
    assert_eq!(v("-9223372036854775807"), Value::I64(i64::MIN + 1));
    assert_eq!(v("007"), Value::U64(7));
    assert_eq!(v("-0"), Value::I64(0));
    assert_eq!(
        v("18446744073709551616"),
        Value::F64(18446744073709551616.0)
    );
    assert_eq!(
        v("-9223372036854775808"),
        Value::F64(-9223372036854775808.0)
    );
    assert_eq!(v("1.0"), Value::F64(1.0));
    assert_eq!(v("1e3"), Value::F64(1000.0));
    assert_eq!(v("-0.0"), Value::F64(-0.0));
    assert_eq!(
        serde_json::from_str::<u64>("18446744073709551615").unwrap(),
        u64::MAX
    );
    assert_eq!(
        serde_json::from_str::<i64>("-9223372036854775807").unwrap(),
        i64::MIN + 1
    );
}

#[test]
fn numeric_fields_accept_and_refuse_as_pinned() {
    // A float field accepts an integer token (the integer is converted,
    // so "-0" reads as +0.0).
    assert_eq!(serde_json::from_str::<f64>("3").unwrap(), 3.0);
    assert_eq!(serde_json::from_str::<f64>("-4").unwrap(), -4.0);
    assert_eq!(serde_json::from_str::<f64>("-0").unwrap().to_bits(), 0);
    assert_eq!(
        serde_json::from_str::<f64>("18446744073709551617").unwrap(),
        18446744073709551616.0
    );
    assert_eq!(serde_json::from_str::<f32>("0.1").unwrap(), 0.1f32);
    // An integer field refuses a float token, however integral.
    assert!(serde_json::from_str::<u32>("1.0").is_err());
    assert!(serde_json::from_str::<i64>("2.5").is_err());
    assert!(serde_json::from_str::<u64>("1e3").is_err());
    assert!(serde_json::from_str::<u64>("18446744073709551616").is_err());
    // An unsigned field refuses a negative value; ranges are checked.
    assert!(serde_json::from_str::<u8>("-1").is_err());
    assert_eq!(serde_json::from_str::<u8>("-0").unwrap(), 0);
    assert!(serde_json::from_str::<u8>("256").is_err());
    assert!(serde_json::from_str::<i8>("-129").is_err());
    assert_eq!(serde_json::from_str::<i8>("-128").unwrap(), -128);
    // Other kinds refuse numbers and vice versa.
    assert!(serde_json::from_str::<bool>("1").is_err());
    assert!(serde_json::from_str::<String>("1").is_err());
    assert!(serde_json::from_str::<f64>("\"1\"").is_err());
    assert!(serde_json::from_str::<f64>("null").is_err());
    assert!(serde_json::from_str::<char>("\"ab\"").is_err());
    assert_eq!(serde_json::from_str::<char>("\"λ\"").unwrap(), 'λ');
}

#[test]
fn null_reads_as_none() {
    assert_eq!(serde_json::from_str::<Option<u32>>("null").unwrap(), None);
    assert_eq!(serde_json::from_str::<Option<u32>>(" 5 ").unwrap(), Some(5));
    assert!(serde_json::from_str::<Option<u32>>("\"5\"").is_err());
}

#[derive(Debug, PartialEq, Deserialize)]
struct Small {
    a: u32,
    b: String,
    #[serde(default)]
    c: Vec<u8>,
    #[serde(default = "seven")]
    d: u64,
}

fn seven() -> u64 {
    7
}

#[test]
fn struct_keys_are_matched_as_pinned() {
    let small = |s: &str| serde_json::from_str::<Small>(s);
    // Unknown keys are ignored, whatever they hold.
    assert_eq!(
        small(r#"{"zzz":[1,{"x":null}],"a":1,"b":"t","extra":"e"}"#).unwrap(),
        Small {
            a: 1,
            b: "t".into(),
            c: vec![],
            d: 7
        }
    );
    // The first of duplicate keys wins; later ones are not even read.
    assert_eq!(
        small(r#"{"a":1,"b":"t","a":2,"c":[4],"a":"not a number","d":9}"#).unwrap(),
        Small {
            a: 1,
            b: "t".into(),
            c: vec![4],
            d: 9
        }
    );
    // A missing key without a default is an error naming field and type.
    let err = small(r#"{"a":1}"#).unwrap_err().to_string();
    assert!(err.contains("missing field `b` in Small"), "{err}");
    let err = small(r#"{"b":"t"}"#).unwrap_err().to_string();
    assert!(err.contains("missing field `a` in Small"), "{err}");
    // A struct reads from a map only, and checks its fields' types.
    assert!(small(r#"[1,"t"]"#).is_err());
    assert!(small("null").is_err());
    assert!(small(r#"{"a":-1,"b":"t"}"#).is_err());
    assert!(small(r#"{"a":1,"b":2}"#).is_err());
}

#[test]
fn enum_shapes_read_as_pinned() {
    let shape = |s: &str| serde_json::from_str::<Shape>(s);
    assert_eq!(shape(r#""Unit""#).unwrap(), Shape::Unit);
    assert_eq!(shape(r#"{"Tuple":7}"#).unwrap(), Shape::Tuple(7));
    assert_eq!(
        shape(r#"{"Struct":{"b":"y","a":2}}"#).unwrap(),
        Shape::Struct {
            a: 2,
            b: "y".into()
        }
    );
    // Unit variants read from a string only; the others from a map with
    // exactly one entry.
    assert!(shape(r#"{"Unit":null}"#).is_err());
    assert!(shape(r#""Tuple""#).is_err());
    assert!(shape(r#"{"Tuple":7,"Unit":null}"#).is_err());
    assert!(shape("{}").is_err());
    assert!(shape(r#""Other""#).is_err());
    assert!(shape(r#"{"Other":1}"#).is_err());
    assert!(shape(r#"{"Tuple":"7"}"#).is_err());
    assert!(shape("3").is_err());
    let err = shape(r#"{"Struct":{"a":2}}"#).unwrap_err().to_string();
    assert!(err.contains("missing field `b` in Shape::Struct"), "{err}");
}

#[test]
fn containers_read_as_pinned() {
    assert_eq!(
        serde_json::from_str::<Vec<Vec<f64>>>("[[1],[],[2.5,3]]").unwrap(),
        vec![vec![1.0], vec![], vec![2.5, 3.0]]
    );
    assert_eq!(serde_json::from_str::<[u8; 2]>("[1,2]").unwrap(), [1, 2]);
    assert!(serde_json::from_str::<[u8; 2]>("[1,2,3]").is_err());
    assert!(serde_json::from_str::<[u8; 2]>("[1]").is_err());
    assert_eq!(
        serde_json::from_str::<(u8, String)>(r#"[1,"a"]"#).unwrap(),
        (1, "a".to_string())
    );
    assert!(serde_json::from_str::<(u8, String)>("[1]").is_err());
    let map: BTreeMap<String, u8> = serde_json::from_str(r#"{"b":2,"a":1}"#).unwrap();
    assert_eq!(
        map.into_iter().collect::<Vec<_>>(),
        [("a".into(), 1), ("b".into(), 2)]
    );
    let map: HashMap<String, u8> = serde_json::from_str(r#"{"k":1}"#).unwrap();
    assert_eq!(map["k"], 1);
    assert!(serde_json::from_str::<Vec<u8>>(r#"{"a":1}"#).is_err());
    assert!(serde_json::from_str::<BTreeMap<String, u8>>("[1]").is_err());
}

#[test]
fn string_escapes_decode_as_pinned() {
    let s = |t: &str| serde_json::from_str::<String>(t);
    assert_eq!(
        s(r#""\"\\\/\b\f\n\r\tAé中""#).unwrap(),
        "\"\\/\u{8}\u{c}\n\r\tAé中"
    );
    assert_eq!(s("\"raw ✓ \u{1}\"").unwrap(), "raw ✓ \u{1}");
    // Surrogates (no BMP character) and unknown escapes are refused.
    assert!(s(r#""\ud83d\ude80""#).is_err());
    assert!(s(r#""\x41""#).is_err());
    assert!(s(r#""\u12""#).is_err());
    assert!(s(r#""open"#).is_err());
}

#[test]
fn malformed_documents_are_refused() {
    for bad in [
        "",
        "   ",
        "{not json",
        "[1, 2",
        "[1,]",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "{1:2}",
        "nul",
        "tru",
        "+1",
        ".5",
        "-",
        "1.2.3",
        "--1",
        "'a'",
    ] {
        assert!(
            serde_json::from_str::<Value>(bad).is_err(),
            "accepted {bad:?}"
        );
    }
    // Trailing characters are refused; trailing whitespace is not.
    assert!(serde_json::from_str::<Value>("1 2").is_err());
    assert!(serde_json::from_str::<Value>("{} x").is_err());
    assert!(serde_json::from_str::<u8>("[1] ").is_err());
    assert_eq!(serde_json::from_str::<u8>(" \t\r\n1 \n").unwrap(), 1);
}
