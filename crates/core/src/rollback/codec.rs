//! The durable form of a [`BindingSnapshot`]: one line of JSON per
//! snapshot, written with [`json::Writer`] and read with [`json::parse`].
//!
//! A snapshot ring that only lives in a coordinator's memory dies with the
//! coordinator; recovering a rollout mid-flight needs the retained
//! snapshots on disk. The encoding has two properties the durability
//! layer relies on:
//!
//! * **Determinism** — map keys are emitted sorted, so encoding the same
//!   snapshot twice (or encoding a decoded snapshot) yields byte-identical
//!   text. Round-trip tests compare strings, not structures.
//! * **Shared substructure** — guest arrays and records are `Rc`-shared
//!   mutable objects; two globals aliasing one array must still alias one
//!   array after a decode. The encoder assigns each heap object an id at
//!   its first occurrence and emits `ref` nodes for repeats; the decoder
//!   rebuilds the aliasing from the id table. (Cycles cannot be built in
//!   the guest language, so the walk terminates.)
//!
//! The encoder streams into the writer instead of building a tree: it runs
//! on serving worker threads after every apply.

use std::collections::HashMap;
use std::rc::Rc;

use dsu_obs::json::{self, Json, Writer};
use tal::text::parse_ty;
use vm::{BindingSnapshot, FnRef, FuncId, GlobalCell, SlotId, StructId, Value};

/// Ids of the shared heap objects encoded so far, keyed by `Rc` pointer.
type ShareTable = HashMap<*const (), u64>;

/// `Ok(id)` for a heap object's first encoding, `Err(id)` for a repeat.
fn visit(shares: &mut ShareTable, ptr: *const ()) -> Result<u64, u64> {
    let next = shares.len() as u64 + 1;
    match *shares.entry(ptr).or_insert(next) {
        id if id == next => Ok(id),
        id => Err(id),
    }
}

fn encode_value(v: &Value, shares: &mut ShareTable, w: &mut Writer) {
    w.obj().key("t");
    match v {
        Value::Unit => w.str("unit"),
        Value::Int(n) => w.str("int").key("v").int(*n),
        Value::Bool(b) => w.str("bool").key("v").bool(*b),
        Value::Str(s) => w.str("str").key("v").str(s),
        Value::Null => w.str("null"),
        Value::Fn(FnRef::Unresolved) => w.str("fn"),
        Value::Fn(FnRef::Direct(id)) => w.str("fn").key("direct").int(id.0),
        Value::Fn(FnRef::Slot(id)) => w.str("fn").key("slot").int(id.0),
        Value::Array(a) => match visit(shares, Rc::as_ptr(a).cast()) {
            Err(id) => w.str("ref").key("id").int(id),
            Ok(id) => {
                w.str("arr").key("id").int(id).key("v").arr();
                for e in a.borrow().iter() {
                    encode_value(e, shares, w);
                }
                w.end_arr()
            }
        },
        Value::Record(r) => match visit(shares, Rc::as_ptr(r).cast()) {
            Err(id) => w.str("ref").key("id").int(id),
            Ok(id) => {
                w.str("rec").key("id").int(id);
                w.key("sid").int(r.struct_id.0).key("v").arr();
                for e in r.fields.borrow().iter() {
                    encode_value(e, shares, w);
                }
                w.end_arr()
            }
        },
    };
    w.end_obj();
}

/// Writes a name-to-id map as an object with its keys sorted.
fn sorted_map<T>(w: &mut Writer, map: &HashMap<String, T>, id: impl Fn(&T) -> u32) {
    let mut fields: Vec<_> = map.iter().collect();
    fields.sort_unstable_by_key(|(name, _)| *name);
    w.obj();
    for (name, v) in fields {
        w.key(name).int(id(v));
    }
    w.end_obj();
}

/// Encodes a snapshot as a single line of JSON (no interior newlines —
/// the ring stores one snapshot per line).
pub(crate) fn encode(snap: &BindingSnapshot) -> String {
    let mut shares = ShareTable::new();
    let mut w = Writer::new();
    w.obj().key("fns");
    sorted_map(&mut w, &snap.fn_by_name, |f| f.0);
    w.key("slots").arr();
    for s in &snap.slots {
        match s {
            Some(id) => w.int(id.0),
            None => w.null(),
        };
    }
    w.end_arr().key("structs");
    sorted_map(&mut w, &snap.struct_by_name, |s| s.0);
    w.key("globals").arr();
    for g in &snap.globals {
        w.obj().key("name").str(&g.name);
        w.key("ty").str(&g.ty.to_string()).key("value");
        encode_value(&g.value, &mut shares, &mut w);
        if let Some(x) = g.pending_transform {
            w.key("xform").int(x.0);
        }
        w.end_obj();
    }
    w.end_arr().end_obj();
    w.finish()
}

/// `j[key]` read through `get` (a `Json::as_*` getter), or an error naming
/// the missing or ill-typed field.
fn need<'a, T>(j: &'a Json, key: &str, get: impl Fn(&'a Json) -> Option<T>) -> Result<T, String> {
    j.get(key)
        .and_then(get)
        .ok_or_else(|| format!("missing or ill-typed `{key}`"))
}

fn id32(j: &Json) -> Option<u32> {
    u32::try_from(j.as_int()?).ok()
}

/// Decodes one node. A fresh array or record comes back empty and already
/// registered under its node's id, so repeats nested inside it resolve to
/// the one object, together with the element nodes still to decode into it.
fn decode_node<'a>(
    j: &'a Json,
    shares: &mut HashMap<u64, Value>,
) -> Result<(Value, &'a [Json]), String> {
    let v = match need(j, "t", Json::as_str)? {
        "unit" => Value::Unit,
        "null" => Value::Null,
        "int" => Value::Int(need(j, "v", |v| i64::try_from(v.as_int()?).ok())?),
        "bool" => match j.get("v") {
            Some(Json::Bool(b)) => Value::Bool(*b),
            _ => return Err("missing or ill-typed `v`".to_string()),
        },
        "str" => Value::str(need(j, "v", Json::as_str)?),
        "fn" => Value::Fn(if j.get("direct").is_some() {
            FnRef::Direct(FuncId(need(j, "direct", id32)?))
        } else if j.get("slot").is_some() {
            FnRef::Slot(SlotId(need(j, "slot", id32)?))
        } else {
            FnRef::Unresolved
        }),
        "ref" => {
            let n = need(j, "id", Json::as_int)? as u64;
            shares
                .get(&n)
                .cloned()
                .ok_or_else(|| format!("ref to unseen object {n}"))?
        }
        tag @ ("arr" | "rec") => {
            let fresh = match tag {
                "arr" => Value::empty_array(),
                _ => Value::record(StructId(need(j, "sid", id32)?), Vec::new()),
            };
            shares.insert(need(j, "id", Json::as_int)? as u64, fresh.clone());
            return Ok((fresh, need(j, "v", Json::as_arr)?));
        }
        other => return Err(format!("unknown value tag `{other}`")),
    };
    Ok((v, &[]))
}

/// Decodes a value node and everything under it. Arrays and records still
/// being filled wait on an explicit stack, so guest data of any depth
/// decodes without recursion.
fn decode_value(j: &Json, shares: &mut HashMap<u64, Value>) -> Result<Value, String> {
    let (root, elems) = decode_node(j, shares)?;
    let mut open = vec![(root, elems.iter())];
    loop {
        let (parent, elems) = open.last_mut().expect("the root stays open");
        let Some(e) = elems.next() else {
            let (v, _) = open.pop().expect("just inspected");
            if open.is_empty() {
                return Ok(v);
            }
            continue;
        };
        let (v, elems) = decode_node(e, shares)?;
        match parent {
            Value::Array(a) => a.borrow_mut().push(v.clone()),
            Value::Record(r) => r.fields.borrow_mut().push(v.clone()),
            _ => unreachable!("only arrays and records have elements"),
        }
        open.push((v, elems.iter()));
    }
}

/// Decodes a snapshot previously produced by [`encode`].
///
/// # Errors
///
/// Returns a description of the syntax error or the first malformed node.
pub(crate) fn decode(text: &str) -> Result<BindingSnapshot, String> {
    let root = json::parse(text)?;
    let mut fn_by_name = HashMap::new();
    for (name, n) in need(&root, "fns", Json::as_obj)? {
        fn_by_name.insert(name.clone(), FuncId(id32(n).ok_or("bad fn id")?));
    }
    let mut struct_by_name = HashMap::new();
    for (name, n) in need(&root, "structs", Json::as_obj)? {
        struct_by_name.insert(name.clone(), StructId(id32(n).ok_or("bad struct id")?));
    }
    let mut slots = Vec::new();
    for s in need(&root, "slots", Json::as_arr)? {
        slots.push(match s {
            Json::Null => None,
            n => Some(FuncId(id32(n).ok_or("bad slot")?)),
        });
    }
    let mut shares = HashMap::new();
    let mut globals = Vec::new();
    for g in need(&root, "globals", Json::as_arr)? {
        let name = need(g, "name", Json::as_str)?.to_string();
        let ty = parse_ty(need(g, "ty", Json::as_str)?)
            .map_err(|e| format!("global `{name}` type: {e}"))?;
        let value = decode_value(need(g, "value", Some)?, &mut shares)?;
        let pending_transform = match g.get("xform") {
            Some(_) => Some(FuncId(need(g, "xform", id32)?)),
            None => None,
        };
        globals.push(GlobalCell {
            name,
            ty,
            value,
            pending_transform,
        });
    }
    Ok(BindingSnapshot {
        fn_by_name,
        slots,
        struct_by_name,
        globals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tal::Ty;

    fn cell(name: &str, ty: Ty, value: Value) -> GlobalCell {
        GlobalCell {
            name: name.to_string(),
            ty,
            value,
            pending_transform: None,
        }
    }

    fn sample() -> BindingSnapshot {
        let shared = Value::array(vec![Value::Int(1), Value::str("x\"y\n")]);
        let rec = Value::record(
            StructId(3),
            vec![shared.clone(), Value::Fn(FnRef::Slot(SlotId(2)))],
        );
        BindingSnapshot {
            fn_by_name: [
                ("serve".to_string(), FuncId(4)),
                ("log".to_string(), FuncId(9)),
            ]
            .into_iter()
            .collect(),
            slots: vec![Some(FuncId(4)), None, Some(FuncId(9))],
            struct_by_name: [("conn".to_string(), StructId(3))].into_iter().collect(),
            globals: vec![
                cell("hits", Ty::Int, Value::Int(42)),
                cell("buf", Ty::array(Ty::Int), shared.clone()),
                GlobalCell {
                    name: "conn0".to_string(),
                    ty: Ty::named("conn"),
                    value: rec,
                    pending_transform: Some(FuncId(7)),
                },
                cell("alias", Ty::array(Ty::Int), shared),
            ],
        }
    }

    #[test]
    fn round_trip_is_deterministic_and_structural() {
        let snap = sample();
        let text = encode(&snap);
        assert!(!text.contains('\n'), "one line: {text}");
        let back = decode(&text).unwrap();
        assert_eq!(back.fn_by_name, snap.fn_by_name);
        assert_eq!(back.slots, snap.slots);
        assert_eq!(back.struct_by_name, snap.struct_by_name);
        assert_eq!(back.globals.len(), snap.globals.len());
        for (a, b) in back.globals.iter().zip(&snap.globals) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ty, b.ty);
            assert_eq!(a.value, b.value);
            assert_eq!(a.pending_transform, b.pending_transform);
        }
        // Deterministic: re-encoding the decode reproduces the bytes.
        assert_eq!(encode(&back), text);
    }

    #[test]
    fn aliasing_survives_the_round_trip() {
        let text = encode(&sample());
        let back = decode(&text).unwrap();
        // globals[1] ("buf") and globals[3] ("alias") share one array, and
        // the record in globals[2] holds the same one: mutating through
        // one handle must be visible through the others.
        let Value::Array(buf) = &back.globals[1].value else {
            panic!("buf decoded as non-array")
        };
        buf.borrow_mut().push(Value::Int(99));
        let Value::Array(alias) = &back.globals[3].value else {
            panic!("alias decoded as non-array")
        };
        assert_eq!(alias.borrow().len(), 3);
        let Value::Record(rec) = &back.globals[2].value else {
            panic!("conn0 decoded as non-record")
        };
        let fields = rec.fields.borrow();
        let Value::Array(inner) = &fields[0] else {
            panic!("record field decoded as non-array")
        };
        assert_eq!(inner.borrow().len(), 3);
    }

    #[test]
    fn live_process_snapshot_round_trips() {
        use tal::{FnSig, Instr, ModuleBuilder};
        use vm::{LinkMode, Process};

        let mut b = ModuleBuilder::new("m", "v1");
        b.global("counter", Ty::Int, vec![Instr::PushInt(7), Instr::Ret]);
        b.function("f", FnSig::new(vec![], Ty::Int), |f| {
            f.emit(Instr::PushInt(1));
            f.emit(Instr::Ret);
        });
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&b.finish()).unwrap();
        let snap = p.snapshot();
        let text = encode(&snap);
        let back = decode(&text).unwrap();
        assert_eq!(encode(&back), text);
        // The decoded snapshot is restorable.
        p.set_global("counter", Value::Int(100));
        p.restore(back);
        assert_eq!(p.global_value("counter"), Some(Value::Int(7)));
    }

    /// A snapshot encoded before the encoder moved onto [`json::Writer`]:
    /// every value tag, escapes, aliasing, a pending transformer and a
    /// null slot. Old rings must keep loading, and byte-for-byte.
    const FIXTURE: &str = r#"{"fns":{"init":0,"log":9,"serve":4},"slots":[4,null,9],"structs":{"conn":3},"globals":[{"name":"hits","ty":"int","value":{"t":"int","v":42}},{"name":"buf","ty":"[int]","value":{"t":"arr","id":1,"v":[{"t":"int","v":-1},{"t":"str","v":"x\"y\n\\z\t\u0001é"}]}},{"name":"conn0","ty":"conn","value":{"t":"rec","id":2,"sid":3,"v":[{"t":"ref","id":1},{"t":"fn","slot":2}]},"xform":7},{"name":"alias","ty":"[int]","value":{"t":"ref","id":1}},{"name":"u","ty":"unit","value":{"t":"unit"}},{"name":"on","ty":"bool","value":{"t":"bool","v":true}},{"name":"none","ty":"conn","value":{"t":"null"}},{"name":"f","ty":"fn(string): int","value":{"t":"fn","direct":4}},{"name":"g","ty":"fn(): unit","value":{"t":"fn"}}]}"#;

    #[test]
    fn committed_fixture_decodes_and_re_encodes_identically() {
        let snap = decode(FIXTURE).unwrap();
        assert_eq!(snap.globals.len(), 9);
        assert_eq!(snap.globals[1].value, snap.globals[3].value);
        assert_eq!(encode(&snap), FIXTURE);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        let deep_arr = "[".repeat(1_000_000);
        let deep_obj = "{\"a\":".repeat(1_000_000);
        for bad in [
            "",
            "{",
            "[1,2]",
            "{\"fns\":{}}",
            "{\"fns\":{},\"slots\":[],\"structs\":{},\"globals\":[{\"name\":\"g\",\"ty\":\"??\",\"value\":{\"t\":\"int\",\"v\":1}}]}",
            "{\"fns\":{},\"slots\":[],\"structs\":{},\"globals\":[{\"name\":\"g\",\"ty\":\"int\",\"value\":{\"t\":\"ref\",\"id\":5}}]}",
            &deep_arr,
            &deep_obj,
        ] {
            assert!(decode(bad).is_err(), "{bad}");
        }
    }
}
