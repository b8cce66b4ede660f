//! In-process session clients: a [`RepClient`] view of a
//! [`TransactionalRep`] bound to one transaction.

use std::sync::Arc;

use crate::txn::TxnId;
use repdir_core::{Op, RepClient, RepId, RepResult, Reply};

use crate::server::TransactionalRep;

/// A transaction's handle to one representative.
///
/// The suite algorithm (`repdir_core::suite::DirSuite`) is generic over
/// [`RepClient`], which has no transaction parameter — the paper's
/// pseudocode likewise leaves the ambient transaction implicit. Binding the
/// transaction into the client keeps that shape: build one `SessionClient`
/// per representative per transaction and hand them to a `DirSuite`.
#[derive(Clone, Debug)]
pub struct SessionClient {
    rep: Arc<TransactionalRep>,
    txn: TxnId,
}

impl SessionClient {
    /// Binds a representative to a transaction.
    pub fn new(rep: Arc<TransactionalRep>, txn: TxnId) -> Self {
        SessionClient { rep, txn }
    }

    /// The bound transaction.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// The underlying representative.
    pub fn rep(&self) -> &Arc<TransactionalRep> {
        &self.rep
    }
}

impl RepClient for SessionClient {
    fn id(&self) -> RepId {
        self.rep.id()
    }

    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
        self.rep.execute(self.txn, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repdir_core::{Key, Value, Version};

    #[test]
    fn session_client_scopes_operations_to_its_txn() {
        let rep = TransactionalRep::new(RepId(3));
        rep.begin(TxnId(1)).unwrap();
        let client = SessionClient::new(Arc::clone(&rep), TxnId(1));
        assert_eq!(client.id(), RepId(3));
        assert_eq!(client.txn(), TxnId(1));
        client.ping().unwrap();
        client
            .insert(&Key::from("k"), Version::new(1), &Value::from("v"))
            .unwrap();
        assert!(client.lookup(&Key::from("k")).unwrap().is_present());
        let nb = client.successor(&Key::Low).unwrap();
        assert_eq!(nb.key, Key::from("k"));
        let nb = client.predecessor(&Key::High).unwrap();
        assert_eq!(nb.key, Key::from("k"));
        client
            .coalesce(&Key::Low, &Key::High, Version::new(2))
            .unwrap();
        client.rep().commit(TxnId(1)).unwrap();
        assert!(rep.is_empty());
    }
}
