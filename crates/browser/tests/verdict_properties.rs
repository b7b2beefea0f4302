//! The membership-keyed decision core agrees with the list-keyed verdict,
//! and both agree with the auto-grant rule spelled out from scratch over
//! domain names, for every vendor and every kind of site.

use proptest::prelude::*;
use rws_browser::{AccessRequest, PolicyVerdict, StorageAccessPolicy, VendorPolicy};
use rws_domain::DomainName;
use rws_model::{MemberRole, RwsList, RwsSet};

fn dn(s: &str) -> DomainName {
    DomainName::parse(s).unwrap()
}

/// A list laid out as `(associated, service, ccTLD)` counts per set —
/// every role present whenever its count is non-zero — and the sites
/// every request draws from: each listed domain plus two unlisted ones.
fn fixture(layout: &[(usize, usize, usize)]) -> (RwsList, Vec<DomainName>) {
    let mut sets = Vec::new();
    for (k, &(associated, service, cctlds)) in layout.iter().enumerate() {
        let primary = format!("https://brand{k}.com");
        let mut set = RwsSet::new(&primary).unwrap();
        for i in 0..associated {
            set.add_associated(&format!("https://brand{k}-sister{i}.com"), "sister brand")
                .unwrap();
        }
        for i in 0..service {
            set.add_service(&format!("https://brand{k}-cdn{i}.net"), "static assets")
                .unwrap();
        }
        let variants: Vec<String> = ["de", "fr", "co.uk"][..cctlds]
            .iter()
            .map(|tld| format!("https://brand{k}.{tld}"))
            .collect();
        let variants: Vec<&str> = variants.iter().map(String::as_str).collect();
        set.add_cctld_variants(&primary, &variants).unwrap();
        sets.push(set);
    }
    let list = RwsList::from_sets(sets).unwrap();
    let mut sites = list.all_domains();
    sites.push(dn("tracker.com"));
    sites.push(dn("unlisted.org"));
    (list, sites)
}

/// The Related Website Sets auto-grant rule restated over names: same set
/// by primary, roles found by scanning the set, no index involved.
fn reference_rws_grant(
    list: &RwsList,
    top: &DomainName,
    embedded: &DomainName,
    prior: bool,
) -> bool {
    let (Some(top_set), Some(embedded_set)) = (list.set_for(top), list.set_for(embedded)) else {
        return false;
    };
    if top_set.primary() != embedded_set.primary() {
        return false;
    }
    if top_set.role_of(top) == Some(MemberRole::Service) {
        return false;
    }
    if embedded_set.role_of(embedded) == Some(MemberRole::Service) {
        return prior;
    }
    true
}

fn reference_verdict(
    vendor: VendorPolicy,
    list: &RwsList,
    top: &DomainName,
    embedded: &DomainName,
    prior: bool,
) -> PolicyVerdict {
    let grant_if = |granted: bool| {
        if granted {
            PolicyVerdict::AutoGrant
        } else {
            PolicyVerdict::Prompt
        }
    };
    match vendor {
        VendorPolicy::ChromeLegacy => PolicyVerdict::AutoGrant,
        VendorPolicy::Brave => PolicyVerdict::Deny,
        VendorPolicy::Safari => PolicyVerdict::Prompt,
        VendorPolicy::Firefox => grant_if(prior),
        VendorPolicy::ChromeWithRws => grant_if(reference_rws_grant(list, top, embedded, prior)),
    }
}

/// Check every `(top, embedded, prior)` combination over `sites` for all
/// five vendors; returns how many `chrome-rws` decisions auto-granted.
fn check_every_pair(list: &RwsList, sites: &[DomainName]) -> usize {
    let mut auto_grants = 0;
    for top in sites {
        for embedded in sites {
            for prior in [false, true] {
                let request = AccessRequest {
                    top_level_site: top.clone(),
                    embedded_site: embedded.clone(),
                    has_prior_interaction: prior,
                };
                for vendor in VendorPolicy::ALL {
                    let by_list = vendor.verdict(&request, list);
                    let by_membership = vendor.verdict_for(
                        list.membership_of(top),
                        list.membership_of(embedded),
                        prior,
                    );
                    let context = format!("{vendor:?} top={top} embedded={embedded} prior={prior}");
                    assert_eq!(by_list, by_membership, "{context}");
                    assert_eq!(
                        by_list,
                        reference_verdict(vendor, list, top, embedded, prior),
                        "{context}"
                    );
                    if vendor == VendorPolicy::ChromeWithRws && by_list == PolicyVerdict::AutoGrant
                    {
                        auto_grants += 1;
                    }
                }
            }
        }
    }
    auto_grants
}

/// A fixed two-set list with every role, where auto-grants must occur.
#[test]
fn verdict_for_matches_verdict_on_a_list_with_every_role() {
    let (list, sites) = fixture(&[(2, 1, 2), (1, 2, 1)]);
    assert!(
        check_every_pair(&list, &sites) > 0,
        "no RWS auto-grant exercised"
    );
}

proptest! {
    /// The same agreement over random list layouts.
    #[test]
    fn verdict_for_matches_verdict(
        layout in proptest::collection::vec((0usize..3, 0usize..3, 0usize..4), 1..4),
    ) {
        let (list, sites) = fixture(&layout);
        check_every_pair(&list, &sites);
    }
}
