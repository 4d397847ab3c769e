//! Message and view types delivered to clients.

use bytes::Bytes;

use crate::{ClientId, GroupId};

/// Delivery service class, mirroring the Spread service levels the
/// paper's protocols use. Together with [`Dest`] they give the three
/// services: Agreed multicast, Agreed unicast (GDH's factor-out,
/// §6.2.2) and FIFO unicast (CKD's pairwise channel).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Service {
    /// Totally-ordered (Agreed) delivery through the token ring. All
    /// members deliver all Agreed messages in the same order. Expensive
    /// on a WAN (token wait + stability rotation).
    Agreed,
    /// FIFO point-to-point delivery that bypasses the token: cheap, but
    /// unordered relative to Agreed traffic. Used for CKD's pairwise
    /// channel messages.
    Fifo,
}

impl Service {
    /// Stable lowercase label (used as the telemetry `service` field).
    pub fn as_str(self) -> &'static str {
        match self {
            Service::Agreed => "agreed",
            Service::Fifo => "fifo",
        }
    }
}

/// Message destination. Only Agreed messages go to [`Dest::All`]; a
/// FIFO message always names one member.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dest {
    /// Every member of the current view (an Agreed multicast).
    All,
    /// A single member. Note that an Agreed unicast still traverses the
    /// token ring and costs as much as a broadcast (§6.2.2 of the
    /// paper) — only the final delivery is filtered.
    One(ClientId),
}

/// A view identifier; increases with every membership change.
pub type ViewId = u64;

/// A membership view, as installed by the view-synchronous membership
/// service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct View {
    /// Monotonically increasing view number. View ids are unique
    /// within a world, so a view id alone identifies an epoch.
    pub id: ViewId,
    /// The group this view belongs to: the world's one group, `0`
    /// unless its initial view named another.
    pub group: GroupId,
    /// Current members, in daemon/ring order (the order Spread reports;
    /// the protocols use it to pick controllers and sponsors).
    pub members: Vec<ClientId>,
    /// Members that joined relative to the previous view.
    pub joined: Vec<ClientId>,
    /// Members that left relative to the previous view.
    pub left: Vec<ClientId>,
}

impl View {
    /// Number of members in the view.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether `c` is a member of this view.
    pub fn contains(&self, c: ClientId) -> bool {
        self.members.contains(&c)
    }

    /// The position of `c` in the view order, if present.
    pub fn position(&self, c: ClientId) -> Option<usize> {
        self.members.iter().position(|&m| m == c)
    }
}

/// A message as delivered to a client.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// The sending member.
    pub sender: ClientId,
    /// Service class the message was sent with.
    pub service: Service,
    /// Destination as specified by the sender.
    pub dest: Dest,
    /// View in which the message was sent (epoch tag; protocols discard
    /// messages from superseded views).
    pub view_id: ViewId,
    /// Application payload.
    pub payload: Bytes,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_membership_queries() {
        let v = View {
            id: 3,
            group: 0,
            members: vec![10, 20, 30],
            joined: vec![30],
            left: vec![],
        };
        assert_eq!(v.size(), 3);
        assert!(v.contains(20));
        assert!(!v.contains(40));
        assert_eq!(v.position(30), Some(2));
        assert_eq!(v.position(99), None);
    }
}
