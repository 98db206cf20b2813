//! Every `Spy*` type registers with its kind and a short element-type name
//! (the `elem_type` every report prints), and its ghost mode registers
//! nothing.

use dsspy_collect::Session;
use dsspy_collections::{
    site, SpyArray, SpyDeque, SpyHashSet, SpyLinkedList, SpyMap, SpyQueue, SpySortedList, SpyStack,
    SpyVec,
};
use dsspy_events::{DsKind, InstanceId, Origin};

#[test]
fn each_spy_type_registers_its_kind_and_element_type() {
    let session = Session::new();
    let ids: Vec<Option<InstanceId>> = vec![
        SpyVec::<String>::register(&session, site!()).instance_id(),
        SpyVec::<Vec<u8>>::register_manual(&session, site!()).instance_id(),
        SpyArray::<f64>::register(&session, site!(), 4).instance_id(),
        SpyDeque::<i32>::register(&session, site!()).instance_id(),
        SpyStack::<u64>::register(&session, site!()).instance_id(),
        SpyQueue::<char>::register(&session, site!()).instance_id(),
        SpyMap::<String, u32>::register(&session, site!()).instance_id(),
        SpyHashSet::<i64>::register(&session, site!()).instance_id(),
        SpyLinkedList::<u8>::register(&session, site!()).instance_id(),
        SpySortedList::<u32, String>::register(&session, site!()).instance_id(),
    ];
    let capture = session.finish();
    let registered: Vec<_> = capture
        .profiles
        .iter()
        .map(|p| {
            let info = &p.instance;
            (
                Some(info.id),
                info.kind,
                info.elem_type.as_str(),
                info.origin,
            )
        })
        .collect();
    let want = [
        (DsKind::List, "String", Origin::Auto),
        (DsKind::List, "Vec<u8>", Origin::Manual),
        (DsKind::Array, "f64", Origin::Auto),
        (DsKind::Deque, "i32", Origin::Auto),
        (DsKind::Stack, "u64", Origin::Auto),
        (DsKind::Queue, "char", Origin::Auto),
        (DsKind::Dictionary, "String,u32", Origin::Auto),
        (DsKind::HashSet, "i64", Origin::Auto),
        (DsKind::LinkedList, "u8", Origin::Auto),
        (DsKind::SortedList, "u32,String", Origin::Auto),
    ];
    let want: Vec<_> = ids
        .into_iter()
        .zip(want)
        .map(|(id, (kind, elem, origin))| (id, kind, elem, origin))
        .collect();
    assert_eq!(registered, want);
}

#[test]
fn ghost_mode_reports_no_instance() {
    assert_eq!(SpyVec::<u8>::plain().instance_id(), None);
    assert_eq!(SpyVec::<u8>::plain_with_capacity(8).instance_id(), None);
    assert_eq!(SpyArray::<u8>::plain(4).instance_id(), None);
    assert_eq!(SpyDeque::<u8>::plain().instance_id(), None);
    assert_eq!(SpyStack::<u8>::plain().instance_id(), None);
    assert_eq!(SpyQueue::<u8>::plain().instance_id(), None);
    assert_eq!(SpyMap::<u8, u8>::plain().instance_id(), None);
    assert_eq!(SpyHashSet::<u8>::plain().instance_id(), None);
    assert_eq!(SpyLinkedList::<u8>::plain().instance_id(), None);
    assert_eq!(SpySortedList::<u8, u8>::plain().instance_id(), None);
}
