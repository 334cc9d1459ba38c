//! The paper's Table 1: functional component mapping.
//!
//! "To facilitate this comparison, we map the functional components of
//! the services to one another."

use std::fmt;

/// The three systems under study: the enum a scenario spec names its
/// system with, under Table 1's name for it.
pub use gscenario::SystemId as System;

/// The four functional roles of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    InformationCollector,
    InformationServer,
    AggregateInformationServer,
    DirectoryServer,
}

impl Role {
    pub const ALL: [Role; 4] = [
        Role::InformationCollector,
        Role::InformationServer,
        Role::AggregateInformationServer,
        Role::DirectoryServer,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Role::InformationCollector => "Information Collector",
            Role::InformationServer => "Information Server",
            Role::AggregateInformationServer => "Aggregate Information Server",
            Role::DirectoryServer => "Directory Server",
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The component of `system` playing `role`, exactly as in Table 1
/// (`None` = the system has no such component; R-GMA ships no aggregate
/// information server, though "one could easily be built using a
/// composite Consumer/Producer").
pub fn component_mapping(system: System, role: Role) -> Option<&'static str> {
    use Role::*;
    use System::*;
    Some(match (system, role) {
        (Mds, InformationCollector) => "Information Provider",
        (Mds, InformationServer) => "GRIS",
        (Mds, AggregateInformationServer) => "GIIS",
        (Mds, DirectoryServer) => "GIIS",
        (Rgma, InformationCollector) => "Producer",
        (Rgma, InformationServer) => "ProducerServlet",
        (Rgma, AggregateInformationServer) => return None,
        (Rgma, DirectoryServer) => "Registry",
        (Hawkeye, InformationCollector) => "Module",
        (Hawkeye, InformationServer) => "Agent",
        (Hawkeye, AggregateInformationServer) => "Manager",
        (Hawkeye, DirectoryServer) => "Manager",
    })
}

/// Render Table 1 as an aligned text table.
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<30} {:<24} {:<18} {:<10}\n",
        "", "MDS", "R-GMA", "Hawkeye"
    ));
    for role in Role::ALL {
        out.push_str(&format!(
            "{:<30} {:<24} {:<18} {:<10}\n",
            role.name(),
            component_mapping(System::Mds, role).unwrap_or("None"),
            component_mapping(System::Rgma, role).unwrap_or("None"),
            component_mapping(System::Hawkeye, role).unwrap_or("None"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_paper() {
        assert_eq!(
            component_mapping(System::Mds, Role::InformationCollector),
            Some("Information Provider")
        );
        assert_eq!(
            component_mapping(System::Rgma, Role::InformationServer),
            Some("ProducerServlet")
        );
        assert_eq!(
            component_mapping(System::Rgma, Role::AggregateInformationServer),
            None
        );
        assert_eq!(
            component_mapping(System::Hawkeye, Role::DirectoryServer),
            Some("Manager")
        );
        // GIIS and Manager each play two roles.
        assert_eq!(
            component_mapping(System::Mds, Role::AggregateInformationServer),
            component_mapping(System::Mds, Role::DirectoryServer),
        );
    }

    #[test]
    fn table_renders_all_roles() {
        let t = render_table1();
        for role in Role::ALL {
            assert!(t.contains(role.name()), "missing {role}");
        }
        assert!(t.contains("GRIS"));
        assert!(t.contains("Registry"));
        assert!(t.contains("None")); // R-GMA's missing aggregate server
    }
}
