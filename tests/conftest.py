import pytest

from gridrel.netfile import parse_network_file, parse_network_text
from gridrel.network import build_network
from gridrel.scenarios import (
    bundled_costs_path, bundled_load_profiles_path, bundled_network_path,
    bundled_validation_path, bundled_wind_path,
)
from gridrel.timeseries import (
    LOAD, PRODUCTION, read_cost_table, read_timeseries_csv,
)

CHAIN4 = """
[network]
id = T
base_mva = 10
base_kv = 12.66
[systems]
dist DS1 root=B1
[buses]
B1 customers=0
B2 customers=10 load_mw=0.2 load_mvar=0.05 category=general
B3 customers=10 load_mw=0.3 load_mvar=0.07 category=general
B4 customers=10 load_mw=0.1 load_mvar=0.02 category=general
[lines]
L1 from=B1 to=B2 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
L2 from=B2 to=B3 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
L3 from=B3 to=B4 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
[switchgear]
CB kind=breaker line=L1 end=from state=closed
D1 kind=disconnector line=L1 end=from state=closed
D2 kind=disconnector line=L2 end=from state=closed
D3 kind=disconnector line=L3 end=from state=closed
"""

# two feeders, whose ends a normally open tie line joins
TIE = """
[network]
id = TIE
[systems]
dist DS1 root=A1
dist DS2 root=C1
[buses]
A1 customers=0
A2 customers=10 load_mw=0.2 category=general
C1 customers=0
C2 customers=10 load_mw=0.2 category=general
[lines]
LA from=A1 to=A2 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
LC from=C1 to=C2 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
LT from=A2 to=C2 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
[switchgear]
CBA kind=breaker line=LA end=from state=closed
CBC kind=breaker line=LC end=from state=closed
DA kind=disconnector line=LA end=from state=closed
DC kind=disconnector line=LC end=from state=closed
DT kind=disconnector line=LT end=from state=open
"""


@pytest.fixture
def chain4():
    return build_network(parse_network_text(CHAIN4))


@pytest.fixture(scope="session")
def ieee33_spec():
    return parse_network_file(bundled_network_path())


@pytest.fixture(scope="session")
def ieee33(ieee33_spec):
    return build_network(ieee33_spec)


@pytest.fixture(scope="session")
def validation6():
    return build_network(parse_network_file(bundled_validation_path()))


@pytest.fixture(scope="session")
def tie():
    return build_network(parse_network_text(TIE))


@pytest.fixture(scope="session")
def bundled_profiles():
    return (read_timeseries_csv(bundled_load_profiles_path(), LOAD),
            read_timeseries_csv(bundled_wind_path(), PRODUCTION))


@pytest.fixture(scope="session")
def cost_table():
    return read_cost_table(bundled_costs_path())
