"""Agent-based double-auction stock market with heterogeneously informed traders."""

from .agents import AgentSpec, Intent, Strategy
from .dividends import (
    DividendParams,
    DividendPath,
    RateParams,
    conditional_present_value,
    generate_dividend_path,
)
from .engine import (
    MarketSession,
    SessionConfig,
    SessionResult,
    default_market,
    market_with_levels,
    relative_returns,
    run_session,
    session_net_returns,
)
from .orderbook import Book, Trade

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "Book",
    "DividendParams",
    "DividendPath",
    "Intent",
    "MarketSession",
    "RateParams",
    "SessionConfig",
    "SessionResult",
    "Strategy",
    "Trade",
    "conditional_present_value",
    "default_market",
    "generate_dividend_path",
    "market_with_levels",
    "relative_returns",
    "run_session",
    "session_net_returns",
]
