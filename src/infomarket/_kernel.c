/* Whole batch sessions and whole strategy-switching chains of market
 * sessions, on flat buffers, draws included.
 *
 * Each period is the compiled twin of the Python loop in engine.py:
 * `draw_period` followed by `MarketSession._trade_period`, which stay the
 * specification. It makes the same draws from the run's generator: it
 * steps its own PCG64 state and runs numpy's own algorithms for each kind
 * of variate, the ziggurat's tables included (see "numpy's variates, drawn
 * here" below), so it needs nothing of numpy to build and the generator
 * ends in the same state. It then runs the same rules, affordability
 * checks, book and settlement, in the same floating-point operation order,
 * so both produce the same bits. The caller owns every buffer (see
 * _kernel.py, whose Session mirrors `im_session`, Block `im_block` and
 * Chain `im_chain`). Blocks and chains read the market from the session
 * header: the periods, the walk's start, scale and extra dividends, the
 * discount rate and its factors, the endowments and the initial price.
 * engine.lay_out_state fills it, the factors with Python's `**`, the
 * Python loop's pow.
 *
 * There are two entry points that trade. Each call runs one share of a
 * batch or an ensemble on a session state its caller laid out: it takes the
 * next session or chain that no share has taken from one counter that
 * every share shares (`take`), until none is left, and writes that item's
 * rows of the shared outputs. So a share that starts late takes fewer
 * items, and each item runs once, with bits that do not depend on its share.
 * `im_run_block` runs sessions of a batch, whose Python block,
 * montecarlo._run_session_block, stays its specification: per session it
 * draws the session's dividend walk and fills the present-value table
 * once, then per run resets the state a fresh MarketSession starts from
 * and runs every period. After the call the state holds the share's last
 * run, series, book and holds included, which montecarlo.first_run reads
 * back for the one run of `simulate` and `stats`. It seeds every
 * generator itself from the master seed's key words, with numpy's
 * SeedSequence and PCG64 reproduced below, so it draws the streams
 * rng.stream gives; `im_seed_pcg64` and `im_pcg64_draw` expose the seeding
 * and every kind of draw to the tests and to _kernel._load's self-check.
 * montecarlo.BLOCK_SPEC lists the names that send a block to the Python
 * loop when patched: the rules, the book methods, the dividend walk,
 * run_session, stream and engine's present-value function.
 * `im_run_chains` runs chains of a switching ensemble, whose Python loop,
 * switching.run_switching_sim, stays its specification. Per chain it sets
 * the strategies from the initial code, as decode_state does, then per
 * segment draws the dividend walk, fills the present values and marks,
 * resets the state a fresh MarketSession starts from, and trades and
 * evaluates every period. Each chain draws on its own generator, whose six
 * state words the caller seeds and the call writes back.
 * switching.ENSEMBLE_SPEC lists the names that send an ensemble to its
 * Python loop, one run_switching_sim per chain, when patched: the rules,
 * the book methods, the dividend walk, both modules' present-value
 * function, MarketSession and its run_period and set_strategy,
 * SwitchingConfig.session_config and stream.
 *
 * Each side of the book is an array sorted by (price, seq) with its best
 * order last. A new order, whose seq is the highest yet, goes below every
 * order at its price or a better one, which the scan from the top moves up
 * a slot as it passes them, and a market order takes the last slot. seq is
 * unique, so (price, seq) orders the resting orders strictly, and both the
 * sides and Python's heapq give them up best first.
 *
 * `im_parse_ticks` is unrelated to sessions and draws nothing: it reads the
 * body of a plain tick file in one pass, for analytics.load_ticks, and
 * refuses every other form, which np.loadtxt and the row reader then read.
 *
 * `im_format_per_run` draws nothing either: it writes a chunk of
 * montecarlo's per-run CSV rows (runs.csv, efficiency.csv), reading a
 * C-contiguous float64 array, the labels' text and a power-of-ten table
 * that _kernel.py computes exactly. Each value is written as Python's
 * repr(float) writes it, for every double: the shortest digits by
 * Giulietti's Schubfach method, exact over the whole range (subnormals
 * included), and zero's sign, nan and the infinities spelled out, so it
 * has no fallback of its own. montecarlo._per_run_lines stays its
 * specification and runs wherever no kernel loads.
 *
 * `im_format_states` draws nothing either: it writes a run's states.csv
 * rows, "initial,interval,code", each number as Python's %d writes it;
 * switching._state_blocks stays its specification.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

enum { RANDOM = 0, FUNDAMENTALIST = 1, CHARTIST = 2 };
enum { NO_ACTION = 0, LIMIT_BID, LIMIT_ASK, MARKET_SELL, MARKET_BUY };

/* The trading step and the draws are inlined into every loop that runs
 * them, so that the loop keeps its state (the generator's, the price) in
 * registers. */
#define INLINE static inline __attribute__((always_inline))

typedef struct {
    double price;
    int64_t seq;
    int64_t trader;
} im_order;

/* The header of a session's arena (engine.lay_out_state), the market included. */
typedef struct {
    /* sizes and constants */
    int64_t n;           /* traders */
    int64_t m;           /* informed traders: the seeding pass's activations */
    int64_t steps;       /* steps per period */
    int64_t clear;       /* clear the book at the period end */
    double growth;       /* 1 + r_f */
    /* the market: the walk, the discount factors and a fresh session's start */
    int64_t periods;     /* the periods the state is laid out for */
    int64_t path_extra;  /* dividends a walk draws beyond its periods */
    int64_t top;         /* the top information level, 0 when nobody is informed */
    double r_e;          /* the discount rate */
    double d0;           /* the dividend walk's start */
    double sigma;        /* and its step scale */
    double initial_cash;
    int64_t initial_shares;
    double initial_price;
    const double *powers; /* top: powers[k + 1] = (1 + r_e) ** k, k = -1 .. top - 2 */
    /* per trader, length n */
    const int64_t *level;
    int64_t *strategy;   /* the chain flips it */
    double *pv_table;     /* n_periods x n, 0 for the uninformed; a period reads its row */
    double *dividends;    /* n_periods: the dividend paid at each period's end */
    double *cash;
    int64_t *shares;
    double *held_cash;   /* committed to resting bids */
    int64_t *held_shares; /* committed to resting asks */
    /* this period's variates */
    int64_t *perm;        /* n: the seeding pass keeps its informed traders */
    int64_t *order;       /* steps */
    double *u;            /* m + steps: the seeding pass's, then the steps' */
    double *z;
    /* the book: each side holds up to book_cap orders */
    im_order *asks;
    im_order *bids;
    int64_t book_cap;
    int64_t n_asks;
    int64_t n_bids;
    int64_t seq;
    /* series */
    double *prices;       /* last price after each step */
    int64_t n_prices;
    int64_t *trade_steps;
    double *trade_prices;
    int64_t *trade_buyers;
    int64_t *trade_sellers;
    int64_t n_trades;
    double *cash_hist;    /* (n_periods + 1) x n, row 0 the endowment */
    int64_t *shares_hist;
    double *period_end_prices;
    int64_t periods_done;
    double last_price;
} im_session;

int64_t im_session_size(void) { return (int64_t)sizeof(im_session); }

/* Rests order o on a side sorted with its best order last (asks by falling
 * price, bids by rising price, one price's orders by falling seq): o's seq
 * is the highest so far, so the orders at its price or a better one move up
 * one slot, each as the scan from the top passes it. Most orders rest at or
 * near the top, so the scan moves few orders and calls nothing. */
INLINE void rest(im_order *side, int64_t *len, im_order o, int is_bid)
{
    int64_t pos = (*len)++;
    for (; pos > 0 && (is_bid ? side[pos - 1].price >= o.price : side[pos - 1].price <= o.price); pos--)
        side[pos] = side[pos - 1];
    side[pos] = o;
}

/* agents._sell and agents._buy: a market order when the price crosses the
 * opposite real best, a limit order when it is positive, else nothing. */
INLINE int sell(double price, int has_bid, double bid, double *out)
{
    if (has_bid && price < bid)
        return MARKET_SELL;
    if (price > 0) {
        *out = price;
        return LIMIT_ASK;
    }
    return NO_ACTION;
}

INLINE int buy(double price, int has_ask, double ask, double *out)
{
    if (has_ask && price > ask)
        return MARKET_BUY;
    if (price > 0) {
        *out = price;
        return LIMIT_BID;
    }
    return NO_ACTION;
}

/* agents._effective_quotes followed by agents._inside_limit */
INLINE int inside_limit(double anchor, double p, int has_bid, double bid, int has_ask, double ask,
                        double z, double *out)
{
    double eff_bid = has_bid ? bid : 0.0;
    double eff_ask = has_ask ? ask : 2.0 * (anchor > p ? anchor : p);
    double price;
    if ((eff_ask - anchor) > (anchor - eff_bid)) {
        price = anchor + 0.25 * z * (anchor - eff_bid);
        return price > 0 ? sell(price, has_bid, bid, out) : NO_ACTION;
    }
    price = anchor + 0.25 * z * (eff_ask - anchor);
    return price > 0 ? buy(price, has_ask, ask, out) : NO_ACTION;
}

INLINE int decide(const im_session *s, int64_t n_prices, const double *pv_row, int64_t i, double p, int has_bid,
                  double bid, int has_ask, double ask, double u, double z, double *out)
{
    switch (s->strategy[i]) {
    case RANDOM:
        if (u < 0.5)
            return sell(p + 2.0 * z, has_bid, bid, out);
        return buy(p + 2.0 * z, has_ask, ask, out);
    case FUNDAMENTALIST: {
        double pv = pv_row[i];
        if (pv < (has_bid ? bid : 0.0))
            return MARKET_SELL;
        if (pv > (has_ask ? ask : 2.0 * (pv > p ? pv : p)))
            return MARKET_BUY;
        return inside_limit(pv, p, has_bid, bid, has_ask, ask, z, out);
    }
    default: { /* CHARTIST */
        const int64_t n = n_prices;
        if (n >= 4) {
            double last = s->prices[n - 1], before = s->prices[n - 2], earlier = s->prices[n - 3];
            if (p < last && last < before && before < earlier)
                return sell(p - fabs(z), has_bid, bid, out);
            if (p > last && last > before && before > earlier)
                return buy(p + fabs(z), has_ask, ask, out);
        }
        if (n < 3) {
            if (u < 0.5)
                return sell(p - fabs(z), has_bid, bid, out);
            return buy(p + fabs(z), has_ask, ask, out);
        }
        return inside_limit(p, p, has_bid, bid, has_ask, ask, z, out);
    }
    }
}

/* The counters of a session's book and series, which a period keeps in
 * locals: the session's own fields are written back at its end. */
typedef struct {
    int64_t n_asks;
    int64_t n_bids;
    int64_t seq;
    int64_t n_prices;
    int64_t n_trades;
} im_counts;

INLINE void record_trade(im_session *s, im_counts *k, double price, int64_t buyer, int64_t seller)
{
    int64_t t = k->n_trades++;
    s->trade_steps[t] = k->n_prices + 1;
    s->trade_prices[t] = price;
    s->trade_buyers[t] = buyer;
    s->trade_sellers[t] = seller;
}

/* One activation of MarketSession._trade_period: trader i decides on its
 * uniform u and normal z against the best quotes and the last price *p,
 * which a trade sets. The trader must afford the intent: no shorting, no
 * credit, counting what its resting orders already commit. Returns 0, or
 * -1 when a side of the book is full. */
INLINE int activate(im_session *s, im_counts *k, const double *pv_row, int64_t i, double *p, double u,
                    double z)
{
    double *cash = s->cash, *held_cash = s->held_cash;
    int64_t *shares = s->shares, *held_shares = s->held_shares;
    const int has_bid = k->n_bids > 0, has_ask = k->n_asks > 0;
    const double bid = has_bid ? s->bids[k->n_bids - 1].price : 0.0;
    const double ask = has_ask ? s->asks[k->n_asks - 1].price : 0.0;
    double price = 0.0;
    switch (decide(s, k->n_prices, pv_row, i, *p, has_bid, bid, has_ask, ask, u, z, &price)) {
    case LIMIT_BID:
        if (cash[i] - held_cash[i] >= price) {
            if (k->n_bids == s->book_cap)
                return -1;
            rest(s->bids, &k->n_bids, (im_order){price, k->seq++, i}, 1);
            held_cash[i] += price;
        }
        break;
    case LIMIT_ASK:
        if (shares[i] - held_shares[i] >= 1) {
            if (k->n_asks == s->book_cap)
                return -1;
            rest(s->asks, &k->n_asks, (im_order){price, k->seq++, i}, 0);
            held_shares[i] += 1;
        }
        break;
    case MARKET_SELL:
        if (shares[i] - held_shares[i] >= 1 && has_bid) {
            const im_order o = s->bids[--k->n_bids];
            *p = o.price;
            cash[o.trader] -= o.price;
            shares[o.trader] += 1;
            held_cash[o.trader] -= o.price;
            cash[i] += o.price;
            shares[i] -= 1;
            record_trade(s, k, o.price, o.trader, i);
        }
        break;
    case MARKET_BUY:
        if (has_ask && cash[i] - held_cash[i] >= ask) {
            const im_order o = s->asks[--k->n_asks];
            *p = o.price;
            cash[i] -= o.price;
            shares[i] += 1;
            cash[o.trader] += o.price;
            shares[o.trader] -= 1;
            held_shares[o.trader] -= 1;
            record_trade(s, k, o.price, i, o.trader);
        }
        break;
    }
    return 0;
}

static void store_counts(im_session *s, const im_counts *k)
{
    s->n_asks = k->n_asks;
    s->n_bids = k->n_bids;
    s->seq = k->seq;
    s->n_prices = k->n_prices;
    s->n_trades = k->n_trades;
}

/* MarketSession._trade_period: one period's activations on its draws and
 * its row of present values, first the seeding pass over perm's informed
 * traders, then the steps, each of which records its price; then the
 * settlement with dividend d. Returns 0, or -1 when a side of the book is
 * full. */
static int trade_period(im_session *s, const double *pv_row, double d)
{
    const int64_t n = s->n, m = s->m;
    const double *u = s->u, *z = s->z;
    double p = s->last_price;
    im_counts k = {s->n_asks, s->n_bids, s->seq, s->n_prices, s->n_trades};
    for (int64_t a = 0, j = 0; a < n; a++) { /* j: the activation's u and z */
        const int64_t i = s->perm[a];
        if (s->level[i] == 0)
            continue;
        if (activate(s, &k, pv_row, i, &p, u[j], z[j])) {
            store_counts(s, &k);
            return -1;
        }
        j++;
    }
    for (int64_t t = 0; t < s->steps; t++) {
        if (activate(s, &k, pv_row, s->order[t], &p, u[m + t], z[m + t])) {
            store_counts(s, &k);
            return -1;
        }
        s->prices[k.n_prices++] = p;
    }
    s->last_price = p;
    double *cash = s->cash, *held_cash = s->held_cash;
    int64_t *shares = s->shares, *held_shares = s->held_shares;
    int64_t done = ++s->periods_done;
    for (int64_t i = 0; i < n; i++) {
        cash[i] = cash[i] * s->growth + (double)shares[i] * d;
        s->cash_hist[done * n + i] = cash[i];
        s->shares_hist[done * n + i] = shares[i];
    }
    s->period_end_prices[done - 1] = p;
    if (s->clear) {
        k.n_asks = k.n_bids = 0;
        for (int64_t i = 0; i < n; i++) {
            held_cash[i] = 0.0;
            held_shares[i] = 0;
        }
    }
    store_counts(s, &k);
    return 0;
}

/* ---- numpy's SeedSequence and PCG64, for generators seeded here ----
 *
 * rng.stream(*key) is Generator(PCG64(SeedSequence(key))). SeedSequence
 * turns the key into entropy words, each component's 32-bit words from the
 * lowest (one 0 word for 0), and hashes them into a pool of 4 words: the
 * first 4 words each through hashmix (0 words where the key is shorter), then
 * every pool word mixed with every other, then each further word mixed into
 * every pool word; hashmix's multiplier runs on through all of it. PCG64
 * takes generate_state(4, uint64) as its 128-bit seed and increment, and
 * steps O'Neill's 128-bit LCG with the XSL-RR output; its 32-bit draws are
 * the halves of one 64-bit output, low half first. */

enum { POOL = 4 };
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u

/* A SeedSequence's pool after the key words fed so far. */
typedef struct {
    uint32_t pool[POOL];
    uint32_t hash_const;
    int64_t words;
} im_seeder;

static const im_seeder NEW_SEEDER = {{0, 0, 0, 0}, INIT_A, 0};

static inline uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ value >> 16;
}

static inline uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ result >> 16;
}

static void feed_word(im_seeder *q, uint32_t word)
{
    if (q->words >= POOL) {
        for (int dst = 0; dst < POOL; dst++)
            q->pool[dst] = mix(q->pool[dst], hashmix(word, &q->hash_const));
    } else {
        q->pool[q->words] = hashmix(word, &q->hash_const);
        if (q->words == POOL - 1) /* the pool is full: mix all its bits together */
            for (int src = 0; src < POOL; src++)
                for (int dst = 0; dst < POOL; dst++)
                    if (src != dst)
                        q->pool[dst] = mix(q->pool[dst], hashmix(q->pool[src], &q->hash_const));
    }
    q->words++;
}

/* One non-negative key component. */
static void feed(im_seeder *q, uint64_t component)
{
    do {
        feed_word(q, (uint32_t)component);
        component >>= 32;
    } while (component);
}

typedef unsigned __int128 u128;

typedef struct {
    u128 state;
    u128 inc;
    int has_uint32;
    uint32_t uinteger;
} im_pcg64;

#define PCG_MULT ((u128)2549297995355413924ULL << 64 | 4865540595714422341ULL)

INLINE uint64_t next64(im_pcg64 *g)
{
    g->state = g->state * PCG_MULT + g->inc;
    uint64_t folded = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return folded >> rot | folded << (-rot & 63);
}

INLINE uint32_t next32(im_pcg64 *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return g->uinteger;
    }
    uint64_t next = next64(g);
    g->has_uint32 = 1;
    g->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* random(): the top 53 bits of a 64-bit draw, scaled into [0, 1) */
INLINE double next_double(im_pcg64 *g)
{
    return (double)(next64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* PCG64(SeedSequence(key)) for the key words fed to `q` (a copy: the caller
 * keeps its seeder to feed more components). */
static void seed_generator(im_pcg64 *g, im_seeder q)
{
    while (q.words < POOL)
        feed_word(&q, 0);
    uint32_t hash_const = INIT_B, w[2 * POOL];
    for (int i = 0; i < 2 * POOL; i++) {
        uint32_t value = q.pool[i % POOL] ^ hash_const;
        hash_const *= MULT_B;
        value *= hash_const;
        w[i] = value ^ value >> 16;
    }
    /* generate_state's uint64 words are little-endian pairs of these */
    const u128 seed = (u128)(w[0] | (uint64_t)w[1] << 32) << 64 | (w[2] | (uint64_t)w[3] << 32);
    const u128 inc = (u128)(w[4] | (uint64_t)w[5] << 32) << 64 | (w[6] | (uint64_t)w[7] << 32);
    g->inc = inc << 1 | 1;
    g->state = g->inc; /* one step from 0 */
    g->state = (g->state + seed) * PCG_MULT + g->inc;
    g->has_uint32 = 0;
    g->uinteger = 0;
}

/* A generator's state as six words: state and inc (high word first),
 * has_uint32 and uinteger, as numpy's `bit_generator.state` holds them. */
static void put_state(uint64_t *out, const im_pcg64 *g)
{
    out[0] = (uint64_t)(g->state >> 64);
    out[1] = (uint64_t)g->state;
    out[2] = (uint64_t)(g->inc >> 64);
    out[3] = (uint64_t)g->inc;
    out[4] = (uint64_t)g->has_uint32;
    out[5] = g->uinteger;
}

static void get_state(im_pcg64 *g, const uint64_t *in)
{
    g->state = (u128)in[0] << 64 | in[1];
    g->inc = (u128)in[2] << 64 | in[3];
    g->has_uint32 = in[4] != 0;
    g->uinteger = (uint32_t)in[5];
}

/* The states of PCG64(SeedSequence(key)) for n_keys keys, six words each
 * into out: key k's words are words[ends[k - 1]:ends[k]] (from 0 for k = 0). */
int im_seed_pcg64(const uint32_t *words, const int64_t *ends, int64_t n_keys, uint64_t *out)
{
    im_pcg64 g;
    for (int64_t k = 0; k < n_keys; k++) {
        im_seeder q = NEW_SEEDER;
        for (int64_t i = k ? ends[k - 1] : 0; i < ends[k]; i++)
            feed_word(&q, words[i]);
        seed_generator(&g, q);
        put_state(out + 6 * k, &g);
    }
    return 0;
}

/* ---- numpy's variates, drawn here ----
 *
 * Each function below is the algorithm numpy's Generator method runs in
 * numpy/random/src/distributions (numpy 1.17 on), so it consumes the same
 * 64- and 32-bit outputs and gives the same bits: random() is next_double,
 * integers(0, n) Lemire's nearly divisionless bounded draw on buffered 32-bit
 * halves (on 64-bit draws above 2**32), permutation(n) a Fisher-Yates shuffle
 * from the end on masked rejection draws, and standard_normal() Marsaglia and
 * Tsang's ziggurat ("The Ziggurat Method for Generating Random Variables",
 * J. Stat. Softw. 5, 2000) on 256 layers, with numpy's tables copied below
 * bit for bit. NEP 19 lets numpy change a distribution between releases, so
 * _kernel._load compares a draw of each kind with numpy's Generator and
 * refuses the library on any difference. */

/* numpy's ki_double, wi_double and fi_double: the ziggurat's layer
 * thresholds, widths and densities (the local tables of distributions.c in
 * numpy's libnpyrandom.a; tests/test_kernel.py compares them). */
static const uint64_t ki_double[256] = {
    0x000ef33d8025ef6a, 0x0000000000000000, 0x000c08be98fbc6a8, 0x000da354fabd8142,
    0x000e51f67ec1eeea, 0x000eb255e9d3f77e, 0x000eef4b817ecab9, 0x000f19470afa44aa,
    0x000f37ed61ffcb18, 0x000f4f469561255c, 0x000f61a5e41ba396, 0x000f707a755396a4,
    0x000f7cb2ec28449a, 0x000f86f10c6357d3, 0x000f8fa6578325de, 0x000f9724c74dd0da,
    0x000f9da907dbf509, 0x000fa360f581fa74, 0x000fa86fde5b4bf8, 0x000facf160d354dc,
    0x000fb0fb6718b90f, 0x000fb49f8d5374c6, 0x000fb7ec2366fe77, 0x000fbaece9a1e50e,
    0x000fbdab9d040bed, 0x000fc03060ff6c57, 0x000fc2821037a248, 0x000fc4a67ae25bd1,
    0x000fc6a2977aee31, 0x000fc87aa92896a4, 0x000fca325e4bde85, 0x000fcbcce902231a,
    0x000fcd4d12f839c4, 0x000fceb54d8fec99, 0x000fd007bf1dc930, 0x000fd1464dd6c4e6,
    0x000fd272a8e2f450, 0x000fd38e4ff0c91e, 0x000fd49a9990b478, 0x000fd598b8920f53,
    0x000fd689c08e99ec, 0x000fd76ea9c8e832, 0x000fd848547b08e8, 0x000fd9178bad2c8c,
    0x000fd9dd07a7add2, 0x000fda9970105e8c, 0x000fdb4d5dc02e20, 0x000fdbf95c5bfcd0,
    0x000fdc9debb99a7d, 0x000fdd3b8118729d, 0x000fddd288342f90, 0x000fde6364369f64,
    0x000fdeee708d514e, 0x000fdf7401a6b42e, 0x000fdff46599ed40, 0x000fe06fe4bc24f2,
    0x000fe0e6c225a258, 0x000fe1593c28b84c, 0x000fe1c78cbc3f99, 0x000fe231e9db1caa,
    0x000fe29885da1b91, 0x000fe2fb8fb54186, 0x000fe35b33558d4a, 0x000fe3b799d0002a,
    0x000fe410e99ead7f, 0x000fe46746d47734, 0x000fe4bad34c095c, 0x000fe50baed29524,
    0x000fe559f74ebc78, 0x000fe5a5c8e41212, 0x000fe5ef3e138689, 0x000fe6366fd91078,
    0x000fe67b75c6d578, 0x000fe6be661e11aa, 0x000fe6ff55e5f4f2, 0x000fe73e5900a702,
    0x000fe77b823e9e39, 0x000fe7b6e37070a2, 0x000fe7f08d774243, 0x000fe8289053f08c,
    0x000fe85efb35173a, 0x000fe893dc840864, 0x000fe8c741f0cebc, 0x000fe8f9387d4ef6,
    0x000fe929cc879b1d, 0x000fe95909d388ea, 0x000fe986fb939aa2, 0x000fe9b3ac714866,
    0x000fe9df2694b6d5, 0x000fea0973abe67c, 0x000fea329cf166a4, 0x000fea5aab32952c,
    0x000fea81a6d5741a, 0x000feaa797de1cf0, 0x000feacc85f3d920, 0x000feaf07865e63c,
    0x000feb13762fec13, 0x000feb3585fe2a4a, 0x000feb56ae3162b4, 0x000feb76f4e284fa,
    0x000feb965fe62014, 0x000febb4f4cf9d7c, 0x000febd2b8f449d0, 0x000febefb16e2e3e,
    0x000fec0be31ebde8, 0x000fec2752b15a15, 0x000fec42049dafd3, 0x000fec5bfd29f196,
    0x000fec75406ceef4, 0x000fec8dd2500cb4, 0x000feca5b6911f12, 0x000fecbcf0c427fe,
    0x000fecd38454fb15, 0x000fece97488c8b3, 0x000fecfec47f91b7, 0x000fed1377358528,
    0x000fed278f844903, 0x000fed3b10242f4c, 0x000fed4dfbad586e, 0x000fed605498c3dd,
    0x000fed721d414fe8, 0x000fed8357e4a982, 0x000fed9406a42cc8, 0x000feda42b85b704,
    0x000fedb3c8746ab4, 0x000fedc2df416652, 0x000fedd171a46e52, 0x000feddf813c8ad3,
    0x000feded0f909980, 0x000fedfa1e0fd414, 0x000fee06ae124bc4, 0x000fee12c0d95a06,
    0x000fee1e579006e0, 0x000fee29734b6524, 0x000fee34150ae4bc, 0x000fee3e3db89b3c,
    0x000fee47ee2982f4, 0x000fee51271db086, 0x000fee59e9407f41, 0x000fee623528b42e,
    0x000fee6a0b5897f1, 0x000fee716c3e077a, 0x000fee7858327b82, 0x000fee7ecf7b06ba,
    0x000fee84d2484ab2, 0x000fee8a60b66343, 0x000fee8f7accc851, 0x000fee94207e25da,
    0x000fee9851a829ea, 0x000fee9c0e13485c, 0x000fee9f557273f4, 0x000feea22762ccae,
    0x000feea4836b42ac, 0x000feea668fc2d71, 0x000feea7d76ed6fa, 0x000feea8ce04fa0a,
    0x000feea94be8333b, 0x000feea950296410, 0x000feea8d9c0075e, 0x000feea7e7897654,
    0x000feea678481d24, 0x000feea48aa29e83, 0x000feea21d22e4da, 0x000fee9f2e352024,
    0x000fee9bbc26af2e, 0x000fee97c524f2e4, 0x000fee93473c0a3a, 0x000fee8e40557516,
    0x000fee88ae369c7a, 0x000fee828e7f3dfd, 0x000fee7bdea7b888, 0x000fee749bff37ff,
    0x000fee6cc3a9bd5e, 0x000fee64529e007e, 0x000fee5b45a32888, 0x000fee51994e57b6,
    0x000fee474a0006cf, 0x000fee3c53e12c50, 0x000fee30b2e02ad8, 0x000fee2462ad8205,
    0x000fee175eb83c5a, 0x000fee09a22a1447, 0x000fedfb27e349cc, 0x000fedebea76216c,
    0x000feddbe422047e, 0x000fedcb0ece39d3, 0x000fedb964042cf4, 0x000feda6dce938c9,
    0x000fed937237e98d, 0x000fed7f1c38a836, 0x000fed69d2b9c02b, 0x000fed538d06ae00,
    0x000fed3c41dea422, 0x000fed23e76a2fd8, 0x000fed0a732fe644, 0x000fecefda07fe34,
    0x000fecd4100eb7b8, 0x000fecb708956eb4, 0x000fec98b61230c1, 0x000fec790a0da978,
    0x000fec57f50f31fe, 0x000fec356686c962, 0x000fec114cb4b335, 0x000febeb948e6fd0,
    0x000febc429a0b692, 0x000feb9af5ee0cdc, 0x000feb6fe1c98542, 0x000feb42d3ad1f9e,
    0x000feb13b00b2d4b, 0x000feae2591a02e9, 0x000feaaeae992257, 0x000fea788d8ee326,
    0x000fea3fcffd73e5, 0x000fea044c8dd9f6, 0x000fe9c5d62f563b, 0x000fe9843ba947a4,
    0x000fe93f471d4728, 0x000fe8f6bd76c5d6, 0x000fe8aa5dc4e8e6, 0x000fe859e07ab1ea,
    0x000fe804f690a940, 0x000fe7ab488233c0, 0x000fe74c751f6aa5, 0x000fe6e8102aa202,
    0x000fe67da0b6abd8, 0x000fe60c9f38307e, 0x000fe5947338f742, 0x000fe51470977280,
    0x000fe48bd436f458, 0x000fe3f9bffd1e37, 0x000fe35d35eeb19c, 0x000fe2b5122fe4fe,
    0x000fe20003995557, 0x000fe13c82788314, 0x000fe068c4ee67b0, 0x000fdf82b02b71aa,
    0x000fde87c57efeaa, 0x000fdd7509c63bfd, 0x000fdc46e529bf13, 0x000fdaf8f82e0282,
    0x000fd985e1b2ba75, 0x000fd7e6ef48cf04, 0x000fd613adbd650b, 0x000fd40149e2f012,
    0x000fd1a1a7b4c7ac, 0x000fcee204761f9e, 0x000fcba8d85e11b2, 0x000fc7d26ecd2d22,
    0x000fc32b2f1e22ed, 0x000fbd6581c0b83a, 0x000fb606c4005434, 0x000fac40582a2874,
    0x000f9e971e014598, 0x000f89fa48a41dfc, 0x000f66c5f7f0302c, 0x000f1a5a4b331c4a
};

static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54, 0x1.57cb938443b61p-54,
    0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54, 0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54,
    0x1.f32482d4cd5c3p-54, 0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53, 0x1.3bd9ec1a2b12fp-53,
    0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53, 0x1.52575621ad374p-53, 0x1.59580a707ce96p-53,
    0x1.60231cfd97eeap-53, 0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53, 0x1.8b1649e7b769ap-53,
    0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53, 0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53,
    0x1.a62676d77cd59p-53, 0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53, 0x1.c8a13a5323b61p-53,
    0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53, 0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53,
    0x1.df73aa9f17653p-53, 0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53, 0x1.fd8537dfa2eacp-53,
    0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52, 0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52,
    0x1.08f869071f40bp-52, 0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52, 0x1.16b08bfc4201ep-52,
    0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52, 0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52,
    0x1.2028a9940a09fp-52, 0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52, 0x1.2d0d862e1b853p-52,
    0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52, 0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52,
    0x1.360e2baca52d5p-52, 0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52, 0x1.426fb2da6745dp-52,
    0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52, 0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52,
    0x1.4b287f602415dp-52, 0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52, 0x1.574000e555f78p-52,
    0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52, 0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52,
    0x1.5fd4fc89f5e38p-52, 0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52, 0x1.6bd01e8b343bbp-52,
    0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52, 0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52,
    0x1.745f7dc70eedcp-52, 0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52, 0x1.80667a486ea1fp-52,
    0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52, 0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52,
    0x1.890c35f47f72dp-52, 0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52, 0x1.954627903a28ap-52,
    0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52, 0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52,
    0x1.9e1ec2b6f7411p-52, 0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52, 0x1.aab563e9ff108p-52,
    0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52, 0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52,
    0x1.b3e0aa0e00c00p-52, 0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52, 0x1.c10486cec16a0p-52,
    0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52, 0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52,
    0x1.caa8fbd36a2abp-52, 0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52, 0x1.d8973f4d7fba5p-52,
    0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52, 0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52,
    0x1.e2e74c4ea46f6p-52, 0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52, 0x1.f1f328ac25321p-52,
    0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52, 0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52,
    0x1.fd360d22fe785p-52, 0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51, 0x1.06ed023a72668p-51,
    0x1.082988f632e17p-51, 0x1.0969708e8a254p-51, 0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51,
    0x1.0d3ea34aa3d30p-51, 0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51, 0x1.16bf93b9deef3p-51,
    0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51, 0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51,
    0x1.1e1ebfbe4ae39p-51, 0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51, 0x1.2982ecd770e78p-51,
    0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51, 0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51,
    0x1.32a7b5e68a4a3p-51, 0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51, 0x1.417a49cb9e5dap-51,
    0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51, 0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51,
    0x1.4e3250dcd8902p-51, 0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51, 0x1.653ce7b006aeap-51,
    0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51, 0x1.72728f05f7a34p-51, 0x1.7799556090673p-51,
    0x1.7d42df4d6ce8cp-51, 0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51, 0x1.d3bb48209ad33p-51
};

static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1, 0x1.e3f11e027f077p-1,
    0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1, 0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1,
    0x1.c6a5ecea9787fp-1, 0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1, 0x1.a748bd550c9e1p-1,
    0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1, 0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1,
    0x1.94291c21b7a47p-1, 0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1, 0x1.7c29a779c6858p-1,
    0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1, 0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1,
    0x1.6c7589e635a89p-1, 0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1, 0x1.57fe4264c8d8fp-1,
    0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1, 0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1,
    0x1.4a42172dc5278p-1, 0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1, 0x1.380c32bda00d5p-1,
    0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1, 0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1,
    0x1.2baaa14d7954ap-1, 0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1, 0x1.1b171573fd111p-1,
    0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1, 0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1,
    0x1.0fbb3a2325913p-1, 0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1, 0x1.006dc85b8cac4p-1,
    0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2, 0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2,
    0x1.ebc6e20bd1f54p-2, 0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2, 0x1.cf419b4ae5b6dp-2,
    0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2, 0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2,
    0x1.bb8a4d6716d91p-2, 0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2, 0x1.a0c923946843ep-2,
    0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2, 0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2,
    0x1.8e3e1fcb9f115p-2, 0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2, 0x1.7506769c7b1edp-2,
    0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2, 0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2,
    0x1.6383d377be515p-2, 0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2, 0x1.4baa357109ca2p-2,
    0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2, 0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2,
    0x1.3b1507cf143aep-2, 0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2, 0x1.2478a1f17de89p-2,
    0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2, 0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2,
    0x1.14bc7bb34ee67p-2, 0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2, 0x1.fe88b89df93c5p-3,
    0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3, 0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3,
    0x1.e0a3816457184p-3, 0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3, 0x1.b7d647a8731aap-3,
    0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3, 0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3,
    0x1.9b6d2bfd2fe5ap-3, 0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3, 0x1.74a7c9c7ab5a6p-3,
    0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3, 0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3,
    0x1.59aac88f31d6cp-3, 0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3, 0x1.34db805b4ab88p-3,
    0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3, 0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3,
    0x1.1b41492757d42p-3, 0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4, 0x1.f0bff29520e1cp-4,
    0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4, 0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4,
    0x1.c04d0680b1015p-4, 0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4, 0x1.7e6ca013eefd6p-4,
    0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4, 0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4,
    0x1.50c9b06fa2baep-4, 0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4, 0x1.12f14d0f2179dp-4,
    0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4, 0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5,
    0x1.d092efeadf162p-5, 0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5, 0x1.5dab23cf2add4p-5,
    0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5, 0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5,
    0x1.0f1982e968011p-5, 0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6, 0x1.4d6eaf2fbb064p-6,
    0x1.30d388dab5e13p-6, 0x1.1490334603012p-6, 0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7,
    0x1.841040d8da478p-7, 0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9, 0x1.4a605b6b9f70fp-10
};

static const double ZIGGURAT_NOR_R = 3.6541528853610087963519472518;
static const double ZIGGURAT_NOR_INV_R = 0.27366123732975827203338247596;

/* The rare ends of a ziggurat draw: the base layer's tail beyond R, or a
 * wedge test, on the LCG state at *state (advanced past the uniforms it
 * draws). Returns 1 and sets *x to the variate, or 0 to draw again. Kept out
 * of line, so that the hot loops that inline standard_normal keep their
 * generator in registers. */
static __attribute__((noinline, cold)) int normal_edge(u128 *state, u128 inc, int idx, uint64_t rabs,
                                                        double *x)
{
    im_pcg64 g = {*state, inc, 0, 0}; /* next_double leaves the 32-bit buffer alone */
    int accepted = 1;
    if (idx == 0) {
        for (;;) {
            /* 1 - U, so that the logs never see 0 */
            const double xx = -ZIGGURAT_NOR_INV_R * log1p(-next_double(&g));
            const double yy = -log1p(-next_double(&g));
            if (yy + yy > xx * xx) {
                *x = (rabs >> 8) & 0x1 ? -(ZIGGURAT_NOR_R + xx) : ZIGGURAT_NOR_R + xx;
                break;
            }
        }
    } else {
        const double f = (fi_double[idx - 1] - fi_double[idx]) * next_double(&g) + fi_double[idx];
        accepted = f < exp(-0.5 * *x * *x);
    }
    *state = g.state;
    return accepted;
}

/* standard_normal(): one 64-bit draw gives the layer (its low 8 bits), the
 * sign (bit 8) and a 52-bit abscissa; 99.3 % of draws end at the first test. */
INLINE double standard_normal(im_pcg64 *g)
{
    for (;;) {
        const uint64_t r = next64(g);
        const int idx = (int)(r & 0xff);
        const uint64_t rabs = (r >> 9) & 0x000fffffffffffffULL;
        /* the sign by its bit, with no branch: x = -x where bit 8 is set */
        double x = (double)rabs * wi_double[idx];
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits ^= (r >> 8 & 0x1) << 63;
        memcpy(&x, &bits, sizeof x);
        if (__builtin_expect(rabs < ki_double[idx], 1))
            return x;
        u128 state = g->state;
        const int accepted = normal_edge(&state, g->inc, idx, rabs, &x);
        g->state = state;
        if (accepted)
            return x;
    }
}

/* random_interval: uniform in [0, max], drawing masked values until one is
 * at most max; 32-bit halves while max fits in them. */
INLINE uint64_t interval(im_pcg64 *g, uint64_t max)
{
    if (max == 0)
        return 0;
    uint64_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffULL) {
        while ((value = (next32(g) & mask)) > max)
            ;
    } else {
        while ((value = (next64(g) & mask)) > max)
            ;
    }
    return value;
}

/* permutation(n): arange(n), then shuffle's Fisher-Yates from the end */
INLINE void permutation(im_pcg64 *g, int64_t n, int64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = i;
    for (int64_t i = n - 1; i > 0; i--) {
        int64_t j = (int64_t)interval(g, (uint64_t)i);
        int64_t t = out[i];
        out[i] = out[j];
        out[j] = t;
    }
}

/* integers(0, rng + 1, size=count), numpy's random_bounded_uint64_fill
 * without masking: nothing drawn for rng = 0; below 2**32 - 1 Lemire's
 * method on 32-bit halves, redrawing while the low word falls under
 * (2**32 - rng - 1) mod (rng + 1), that modulus taken only when the low word
 * is below rng + 1; at 2**32 - 1 a bare 32-bit half; above it the same
 * method on 64-bit draws. */
INLINE void bounded_fill(im_pcg64 *g, uint64_t rng, int64_t count, int64_t *out)
{
    if (rng == 0) {
        memset(out, 0, (size_t)count * sizeof *out);
    } else if (rng < 0xffffffffULL) {
        const uint32_t excl = (uint32_t)rng + 1;
        for (int64_t i = 0; i < count; i++) {
            uint64_t m = (uint64_t)next32(g) * excl;
            if ((uint32_t)m < excl) {
                const uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % excl;
                while ((uint32_t)m < threshold)
                    m = (uint64_t)next32(g) * excl;
            }
            out[i] = (int64_t)(m >> 32);
        }
    } else if (rng == 0xffffffffULL) {
        for (int64_t i = 0; i < count; i++)
            out[i] = next32(g);
    } else { /* rng < 2**63: the bound is an int64 */
        const uint64_t excl = rng + 1;
        for (int64_t i = 0; i < count; i++) {
            u128 m = (u128)next64(g) * excl;
            if ((uint64_t)m < excl) {
                const uint64_t threshold = (UINT64_MAX - rng) % excl;
                while ((uint64_t)m < threshold)
                    m = (u128)next64(g) * excl;
            }
            out[i] = (int64_t)(m >> 64);
        }
    }
}

enum { DRAW_RAW = 0, DRAW_INTEGERS, DRAW_RANDOM, DRAW_NORMAL, DRAW_PERMUTATION };

/* `count` draws of one kind from the generator in `state` (six words, read
 * and written back), as numpy's bit_generator.random_raw(count),
 * integers(0, bound, count), random(count), standard_normal(count) or
 * permutation(count) make them. Returns 0, or -1 for an unknown kind or a
 * bound below 1. */
int im_pcg64_draw(uint64_t *state, int64_t kind, int64_t count, int64_t bound, void *out)
{
    im_pcg64 g;
    get_state(&g, state);
    switch (kind) {
    case DRAW_RAW:
        for (int64_t i = 0; i < count; i++)
            ((uint64_t *)out)[i] = next64(&g);
        break;
    case DRAW_INTEGERS:
        if (bound < 1)
            return -1;
        bounded_fill(&g, (uint64_t)(bound - 1), count, out);
        break;
    case DRAW_RANDOM:
        for (int64_t i = 0; i < count; i++)
            ((double *)out)[i] = next_double(&g);
        break;
    case DRAW_NORMAL:
        for (int64_t i = 0; i < count; i++)
            ((double *)out)[i] = standard_normal(&g);
        break;
    case DRAW_PERMUTATION:
        permutation(&g, count, out);
        break;
    default:
        return -1;
    }
    put_state(state, &g);
    return 0;
}

/* engine.draw_period: one period's variates, in the documented layout. */
static void draw_period(im_session *s, im_pcg64 *gen)
{
    const int64_t n = s->n, m = s->m, steps = s->steps;
    double *u = s->u, *z = s->z;
    im_pcg64 local = *gen, *g = &local; /* a copy the compiler keeps in registers */
    permutation(g, n, s->perm);
    for (int64_t i = 0; i < m; i++)         /* random(m) */
        u[i] = next_double(g);
    for (int64_t i = 0; i < m; i++)         /* standard_normal(m) */
        z[i] = standard_normal(g);
    bounded_fill(g, (uint64_t)(n - 1), steps, s->order); /* integers(0, n, size=steps) */
    for (int64_t i = m; i < m + steps; i++) /* random(steps) */
        u[i] = next_double(g);
    for (int64_t i = m; i < m + steps; i++) /* standard_normal(steps) */
        z[i] = standard_normal(g);
    *gen = local;
}

/* One period: its draws from g and its trading on its row of the
 * present-value table. Returns 0, or -1 when a side of the book is full. */
static int run_period(im_session *s, im_pcg64 *g)
{
    int64_t k = s->periods_done; /* this period's row, 0-based */
    draw_period(s, g);
    return trade_period(s, s->pv_table + k * s->n, s->dividends[k]);
}

/* A share of a switching ensemble (switching.run_switching_sim per chain):
 * the chains' length and evaluation interval, the share's scratch buffers,
 * the ensemble-wide outputs, one row per chain, and the counter from which
 * every share of the ensemble takes its next chain. The market is the
 * session header's, whose `periods` is a segment's length. The caller owns
 * every buffer (see _kernel.Chain). */
typedef struct {
    int64_t n_periods;    /* each chain's periods */
    int64_t interval;     /* periods per strategy evaluation */
    double *walk;         /* periods + path_extra: the segment's dividends */
    double *marks;        /* periods + 1: the top level's present values, periods 1.. */
    double *returns;      /* n: the interval's returns */
    int64_t n_chains;     /* the ensemble's */
    int64_t *next_chain;  /* shared by every share: the next chain to take, from 0 */
    uint64_t *states;     /* n_chains x 6: each chain's generator, read and written back */
    int64_t *codes;       /* n_chains x (n_periods / interval + 1), column 0 the initial codes */
    int64_t *tie_events;  /* n_chains */
    int64_t *all_equal_events; /* n_chains */
} im_chain;

int64_t im_chain_size(void) { return (int64_t)sizeof(im_chain); }

/* dividends.conditional_present_value on a dividend walk, with the
 * header's discount factors: the last readable dividend as a perpetuity,
 * then the earlier ones discounted one by one, in the same order. */
static double present_value(const im_session *s, const double *walk, int64_t level, int64_t period)
{
    const double *d = walk, *powers = s->powers; /* d[i - 1] is D(i) */
    int64_t last = period + level - 1;
    double pv = d[last - 1] / (s->r_e * powers[level - 1]);
    for (int64_t i = period; i < last; i++)
        pv += d[i - 1] / powers[i - period + 1];
    return pv;
}

/* dividends.generate_dividend_path: the `points` = periods + path_extra
 * dividends of the reflected walk from d0, on standard_normal(points - 1). */
static void draw_walk(const im_session *s, double *walk, int64_t periods, im_pcg64 *g)
{
    const int64_t points = periods + s->path_extra;
    double d = s->d0;
    walk[0] = d;
    for (int64_t i = 1; i < points; i++)
        walk[i] = d = fabs(d + s->sigma * standard_normal(g));
}

/* The session's inputs for `length` periods on a walk: its dividends and
 * engine.present_value_table, 0 for the uninformed. */
static void fill_table(im_session *s, const double *walk, int64_t length)
{
    const int64_t n = s->n;
    memcpy(s->dividends, walk, (size_t)length * sizeof(double));
    for (int64_t k = 1; k <= length; k++)
        for (int64_t i = 0; i < n; i++)
            s->pv_table[(k - 1) * n + i] = s->level[i] > 0 ? present_value(s, walk, s->level[i], k) : 0.0;
}

/* The state a fresh MarketSession starts from: the header's endowments, no
 * holds, an empty book and series, the initial price. The strategies stay. */
static void reset_session(im_session *s)
{
    for (int64_t i = 0; i < s->n; i++) {
        s->cash[i] = s->cash_hist[i] = s->initial_cash;
        s->shares[i] = s->shares_hist[i] = s->initial_shares;
        s->held_cash[i] = 0.0;
        s->held_shares[i] = 0;
    }
    s->n_asks = s->n_bids = 0;
    s->seq = s->n_prices = s->n_trades = s->periods_done = 0;
    s->last_price = s->initial_price;
}

/* np.add.reduce over n doubles, n <= 15, in numpy's order: left to right
 * below 8; from 8 on, 8 partial sums combined pairwise, then the rest. */
static double numpy_sum(const double *a, int64_t n)
{
    double res = 0.0;
    int64_t i = 0;
    if (n >= 8) {
        res = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
        i = 8;
    }
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* A segment of `length` periods starts as a fresh MarketSession would: a
 * new dividend walk, its present values and the top level's marks, and the
 * session state of a new market. The strategies carry over. */
static void start_segment(im_session *s, im_chain *c, im_pcg64 *g, int64_t length)
{
    draw_walk(s, c->walk, length, g);
    fill_table(s, c->walk, length);
    for (int64_t k = 1; k <= length + 1; k++)
        c->marks[k - 1] = present_value(s, c->walk, s->top, k);
    reset_session(s);
}

/* A whole switching chain on one session state, laid out for the longest
 * (the first) segment: each segment's periods, and at the end of every
 * `interval` periods the evaluation of switching.run_switching_sim. Each
 * trader's return is its wealth, shares marked at the top level's value,
 * against the interval's starting wealth; a trader strictly below the
 * cross-trader mean flips between the value and the trend rule; then
 * every endowment is restored. The chain starts from the profile in column
 * 0 of its row of `codes`, and writes the rest of the row and its tie
 * counts. Returns 0, or -1 when a side of the book is full. */
static int run_chain(im_session *s, im_chain *c, int64_t chain, im_pcg64 *g)
{
    const int64_t n = s->n, segment = s->periods, shares = s->initial_shares;
    const double cash = s->initial_cash;
    double *r = c->returns;
    int64_t *codes = c->codes + chain * (c->n_periods / c->interval + 1);
    int64_t code = codes[0], recorded = 1, done = 0;
    for (int64_t i = 0; i < n; i++) /* decode_state: bit i set makes trader i a chartist */
        s->strategy[i] = (code - 1) >> i & 1 ? CHARTIST : FUNDAMENTALIST;
    c->tie_events[chain] = c->all_equal_events[chain] = 0;
    while (done < c->n_periods) {
        int64_t length = c->n_periods - done < segment ? c->n_periods - done : segment;
        start_segment(s, c, g, length);
        double w = cash + (double)shares * c->marks[0];
        for (int64_t k = 1; k <= length; k++) {
            if (run_period(s, g))
                return -1;
            if (++done % c->interval)
                continue;
            double m = c->marks[k];
            for (int64_t i = 0; i < n; i++)
                r[i] = (s->cash[i] + (double)s->shares[i] * m - w) / w;
            double mean = numpy_sum(r, n) / (double)n;
            int64_t bits = code - 1;
            int below = 0, tie = 0;
            for (int64_t i = 0; i < n; i++) {
                if (r[i] < mean) {
                    bits ^= (int64_t)1 << i;
                    s->strategy[i] = bits >> i & 1 ? CHARTIST : FUNDAMENTALIST;
                    below = 1;
                } else if (r[i] == mean) {
                    tie = 1;
                }
            }
            if (!below)
                c->all_equal_events[chain]++;
            else if (tie)
                c->tie_events[chain]++;
            code = codes[recorded++] = bits + 1;
            for (int64_t i = 0; i < n; i++) {
                s->cash[i] = cash;
                s->shares[i] = shares;
            }
            w = cash + (double)shares * m;
        }
    }
    return 0;
}

/* The next of the n items that no share has taken from `next`, the counter
 * every share shares, or -1 when none is left; after a failure, `stop` leaves
 * none and returns -1. The caller reads the outputs only after every share
 * has returned, so the count needs atomicity alone. */
static int64_t take(int64_t *next, int64_t n)
{
    int64_t k = __atomic_fetch_add(next, 1, __ATOMIC_RELAXED);
    return k < n ? k : -1;
}

static int64_t stop(int64_t *next, int64_t n)
{
    __atomic_store_n(next, n, __ATOMIC_RELAXED);
    return -1;
}

/* A share's chains, each the chain k it takes, on one session state and the
 * generator in row k of `states` (six words, read, and written back also on
 * failure). Every initial code must lie in 1..2**n. Returns the number of
 * chains the share ran, or -1 (`stop`) when a side of the book is full. */
int64_t im_run_chains(im_session *s, im_chain *c)
{
    int64_t ran = 0;
    for (int64_t k; (k = take(c->next_chain, c->n_chains)) >= 0; ran++) {
        im_pcg64 g;
        get_state(&g, c->states + k * 6);
        int failed = run_chain(s, c, k, &g);
        put_state(c->states + k * 6, &g);
        if (failed)
            return stop(c->next_chain, c->n_chains);
    }
    return ran;
}

/* A share of a batch (montecarlo.run_batch): the batch's sessions and runs,
 * the master seed and domains their streams derive from, the counter every
 * share takes its next session from, and the batch-wide outputs. The market
 * is the session header's. The caller owns every buffer (see _kernel.Block). */
typedef struct {
    int64_t runs;         /* per session */
    const uint32_t *master; /* n_master: the master seed's key words */
    int64_t n_master;
    int64_t path_domain;  /* rng.PATH_DOMAIN: a walk's key is (master, path_domain, session) */
    int64_t run_domain;   /* rng.RUN_DOMAIN: a run's key is (master, run_domain, session, run) */
    int64_t n_sessions;   /* the batch's */
    int64_t *next_session; /* shared by every share: the next session to take, from 0 */
    double *walks;        /* n_sessions x (periods + path_extra): each session's dividends */
    double *wealth;       /* batch runs x n, row session * runs + run: final cash plus shares at the last close */
    double *closes;       /* batch runs x periods: each period's last price */
    uint64_t *states;     /* NULL, or n_sessions x (runs + 1) x 6: the walk's, then each run's final state */
} im_block;

int64_t im_block_size(void) { return (int64_t)sizeof(im_block); }

/* A share's sessions, each the session it takes, on one session state (see
 * the header), and their wealth and closing prices. Returns the number of
 * sessions the share ran, or -1 (`stop`) when a side of the book is full. */
int64_t im_run_block(im_session *s, im_block *b)
{
    const int64_t n = s->n, periods = s->periods, runs = b->runs, points = periods + s->path_extra;
    im_seeder master = NEW_SEEDER;
    for (int64_t i = 0; i < b->n_master; i++)
        feed_word(&master, b->master[i]);
    im_seeder path_key = master, run_key = master;
    feed(&path_key, (uint64_t)b->path_domain);
    feed(&run_key, (uint64_t)b->run_domain);
    im_pcg64 g;
    int64_t ran = 0;
    for (int64_t session; (session = take(b->next_session, b->n_sessions)) >= 0; ran++) {
        double *walk = b->walks + session * points;
        uint64_t *states = b->states ? b->states + session * (runs + 1) * 6 : NULL;
        im_seeder key = path_key;
        feed(&key, (uint64_t)session);
        seed_generator(&g, key);
        draw_walk(s, walk, periods, &g);
        if (states)
            put_state(states, &g);
        fill_table(s, walk, periods);
        im_seeder session_key = run_key;
        feed(&session_key, (uint64_t)session);
        for (int64_t r = 0; r < runs; r++) {
            key = session_key;
            feed(&key, (uint64_t)r);
            seed_generator(&g, key);
            reset_session(s);
            for (int64_t t = 0; t < periods; t++)
                if (run_period(s, &g))
                    return stop(b->next_session, b->n_sessions);
            const int64_t row = session * runs + r;
            double *wealth = b->wealth + row * n;
            for (int64_t i = 0; i < n; i++)
                wealth[i] = s->cash[i] + (double)s->shares[i] * s->last_price;
            memcpy(b->closes + row * periods, s->period_end_prices, (size_t)periods * sizeof(double));
            if (states)
                put_state(states + (r + 1) * 6, &g);
        }
    }
    return ran;
}

/* The decimal field at `*p`: digits, optionally a '.' and more digits. It
 * is read exactly when its digits form an integer mant below 2**53 with at
 * most 22 of them after the point, so that mant and 10**frac are both exact
 * doubles and their quotient is correctly rounded: the double float() reads
 * from the same text. Returns 0 and advances `*p` past the field, or -1 for
 * any other form (a sign, an exponent, a bare '.', a space, too many digits). */
static int parse_decimal(const char **p, const char *end, double *out)
{
    static const double powers[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
                                    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
    const uint64_t limit = (uint64_t)1 << 53;
    const char *c = *p, *start = c;
    uint64_t mant = 0;
    for (; c < end && (unsigned)(*c - '0') < 10; c++)
        if ((mant = mant * 10 + (uint64_t)(*c - '0')) >= limit)
            return -1;
    if (c == start)
        return -1;
    int64_t frac = 0;
    if (c < end && *c == '.') {
        for (start = ++c; c < end && (unsigned)(*c - '0') < 10; c++)
            if ((mant = mant * 10 + (uint64_t)(*c - '0')) >= limit)
                return -1;
        frac = c - start;
        if (frac == 0 || frac > 22)
            return -1;
    }
    *out = frac ? (double)mant / powers[frac] : (double)mant;
    *p = c;
    return 0;
}

/* The rows of a tick file's body, the bytes after its header, into times
 * and prices of up to `cap` rows each. A row is `time,price`, both decimal
 * fields, optionally followed by ignored columns of printable ASCII or tabs
 * with no '"'; it ends in "\n", "\r\n" or the end of the bytes, and empty
 * lines are skipped. Returns the number of rows, or -1 for any other form,
 * which analytics reads with np.loadtxt or its row reader instead. */
int64_t im_parse_ticks(const char *text, int64_t len, double *times, double *prices, int64_t cap)
{
    const char *c = text, *end = text + len;
    int64_t rows = 0;
    while (c < end) {
        if (*c == '\n' || (*c == '\r' && c + 1 < end && c[1] == '\n')) {
            c += *c == '\n' ? 1 : 2;
            continue;
        }
        if (rows == cap || parse_decimal(&c, end, &times[rows]) || c == end || *c++ != ','
            || parse_decimal(&c, end, &prices[rows]))
            return -1;
        rows++;
        if (c < end && *c == ',') {
            for (c++; c < end && *c != '\n' && *c != '\r'; c++) {
                unsigned char b = (unsigned char)*c;
                if (b == '"' || b > '~' || (b < ' ' && b != '\t'))
                    return -1;
            }
        }
        if (c < end) {
            if (*c == '\r' && c + 1 < end && c[1] == '\n')
                c++;
            else if (*c != '\n')
                return -1;
            c++;
        }
    }
    return rows;
}

/* ---- repr(float) text for montecarlo's per-run CSV rows ----
 *
 * The digits are the shortest decimal that reads back as the same double,
 * the closest one to it where several are that short, the one with an even
 * last digit on an exact tie: David Gay's dtoa in mode 0, which is what
 * Python's float repr prints. They come from Giulietti's Schubfach method
 * ("The Schubfach way to render doubles", 2020), exact for every finite
 * double: with k = floor(log10(ulp)), the only candidates are the multiples
 * of 10**(k+1) and of 10**k next to the value, and the endpoints of its
 * rounding interval are compared with them after scaling by 10**-k, rounded
 * to odd so that every comparison with a multiple of 4 stays exact.
 *
 * `pow10` is the table _kernel.py computes from Python integers: for each j
 * in POW10_MIN..POW10_MAX, g = ceil(10**j / 2**e) as (high, low) 64-bit
 * words, with e chosen so that 2**127 <= g < 2**128. */

enum { POW10_MIN = -292 };

/* rto(cp * g / 2**128): the integer part, made odd if a fraction is left.
 * g overstates 10**j / 2**e by less than one, so the product is overstated
 * by less than cp < 2**64, below the fraction word (bits 64..127), which an
 * exact product leaves zero; Schubfach's analysis bounds every inexact
 * product's fraction far above 2**-64. */
static uint64_t round_to_odd(const uint64_t *g, uint64_t cp)
{
    unsigned __int128 low = (unsigned __int128)g[1] * cp;
    unsigned __int128 mid = (unsigned __int128)g[0] * cp + (uint64_t)(low >> 64);
    return (uint64_t)(mid >> 64) | ((uint64_t)mid != 0);
}

/* The shortest digits of a finite double > 0 given by its bits: returns the
 * digits as an integer and sets *exp10 so that value ~ digits * 10**exp10.
 * The shifts by 22 and 19 are floor(log10(2**q)), floor(log10(3/4 * 2**q))
 * and floor(log2(10**j)), exact over this range; a right shift of a negative
 * int rounds down under gcc. */
static uint64_t shortest_digits(uint64_t bits, int32_t *exp10, const uint64_t *pow10)
{
    const uint64_t fraction = bits & (((uint64_t)1 << 52) - 1);
    const int32_t biased = (int32_t)(bits >> 52);
    const uint64_t c = biased ? fraction | (uint64_t)1 << 52 : fraction;
    const int32_t q = (biased ? biased : 1) - 1075;
    /* below a power of two the interval's lower half is half as wide */
    const int closer = fraction == 0 && biased > 1;
    const int32_t k = (q * 1262611 - (closer ? 524031 : 0)) >> 22;
    const int32_t h = q + ((-k * 1741647) >> 19) + 1;
    const uint64_t *g = pow10 + 2 * (-k - POW10_MIN);
    const uint64_t vbl = round_to_odd(g, (4 * c - 2 + (uint64_t)closer) << h);
    const uint64_t vb = round_to_odd(g, (4 * c) << h);
    const uint64_t vbr = round_to_odd(g, (4 * c + 2) << h);
    /* an odd significand's interval leaves out its endpoints */
    const uint64_t lower = vbl + (c & 1), upper = vbr - (c & 1);
    const uint64_t s = vb >> 2;
    if (s >= 10) {
        const uint64_t sp = s / 10;
        const int up = lower <= 40 * sp, wp = 40 * sp + 40 <= upper;
        if (up != wp) {
            *exp10 = k + 1;
            return sp + (uint64_t)wp;
        }
    }
    *exp10 = k;
    const int u = lower <= 4 * s, w = 4 * s + 4 <= upper;
    if (u != w)
        return s + (uint64_t)w;
    const uint64_t mid = 4 * s + 2;
    return s + (uint64_t)(vb > mid || (vb == mid && (s & 1)));
}

/* The decimal digits of v at p; returns the end. */
static char *put_uint(char *p, uint64_t v)
{
    char tmp[20];
    int n = 0;
    do
        tmp[n++] = (char)('0' + v % 10);
    while (v /= 10);
    while (n)
        *p++ = tmp[--n];
    return p;
}

/* repr(v) at p, at most 24 bytes: the digits in positional form when the
 * decimal point falls within -4 < point <= 16 of their start, "1.5e-05"
 * form otherwise, "nan", "inf", "-inf" and "-0.0" as Python spells them. */
static char *put_repr(char *p, double v, const uint64_t *pow10)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    const uint64_t magnitude = bits & ~((uint64_t)1 << 63);
    if (magnitude > (uint64_t)0x7ff << 52) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (magnitude == (uint64_t)0x7ff << 52) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (magnitude == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    int32_t exp10;
    uint64_t digits = shortest_digits(magnitude, &exp10, pow10);
    while (digits % 10 == 0) {
        digits /= 10;
        exp10++;
    }
    char d[20];
    const int n = (int)(put_uint(d, digits) - d);
    const int point = n + exp10; /* value = 0.d1d2... * 10**point */
    if (point <= -4 || point > 16) {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, (size_t)(n - 1));
            p += n - 1;
        }
        const int e = point - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e > -10 && e < 10)
            *p++ = '0';
        return put_uint(p, (uint64_t)(e < 0 ? -e : e));
    }
    if (point <= 0) {
        memcpy(p, "0.", 2);
        memset(p + 2, '0', (size_t)-point);
        p += 2 - point;
        memcpy(p, d, (size_t)n);
        return p + n;
    }
    if (point >= n) {
        memcpy(p, d, (size_t)n);
        memset(p + n, '0', (size_t)(point - n));
        p += point;
        memcpy(p, ".0", 2);
        return p + 2;
    }
    memcpy(p, d, (size_t)point);
    p[point] = '.';
    memcpy(p + point + 1, d + point, (size_t)(n - point));
    return p + n + 1;
}

/* The CSV rows of rows first..first + n - 1 of a C-contiguous (. x k)
 * float64 array, `values` pointing at row `first`: per value
 * "session,run,label,repr(value)\r\n", where row = session * runs + run and
 * label j is labels[label_ends[j - 1]:label_ends[j]] (from 0 for j = 0).
 * out takes at most 70 bytes per value besides its label. Returns the bytes
 * written. */
int64_t im_format_per_run(const double *values, int64_t n, int64_t k, int64_t runs, int64_t first,
                          const char *labels, const int64_t *label_ends, const uint64_t *pow10, char *out)
{
    char *p = out;
    for (int64_t i = 0; i < n; i++) {
        char head[42], *h = put_uint(head, (uint64_t)((first + i) / runs));
        *h++ = ',';
        h = put_uint(h, (uint64_t)((first + i) % runs));
        *h++ = ',';
        for (int64_t j = 0; j < k; j++) {
            const int64_t from = j ? label_ends[j - 1] : 0;
            memcpy(p, head, (size_t)(h - head));
            p += h - head;
            memcpy(p, labels + from, (size_t)(label_ends[j] - from));
            p += label_ends[j] - from;
            *p++ = ',';
            p = put_repr(p, values[i * k + j], pow10);
            memcpy(p, "\r\n", 2);
            p += 2;
        }
    }
    return p - out;
}

/* v's decimal digits at p, after a '-' when it is negative; returns the end. */
static char *put_int(char *p, int64_t v)
{
    if (v < 0)
        *p++ = '-';
    return put_uint(p, v < 0 ? -(uint64_t)v : (uint64_t)v);
}

/* The states.csv rows of a run's codes[0..n), recorded from interval
 * `first` on: per code the run's head, its initial code and a comma
 * (head_len bytes), then "first + i,codes[i]\r\n", each number as %d writes
 * it. out takes at most 42 bytes per row besides the head. Returns the
 * bytes written. */
int64_t im_format_states(const int64_t *codes, int64_t n, const char *head, int64_t head_len, int64_t first,
                         char *out)
{
    char *p = out;
    for (int64_t i = 0; i < n; i++) {
        memcpy(p, head, (size_t)head_len);
        p = put_uint(p + head_len, (uint64_t)(first + i));
        *p++ = ',';
        p = put_int(p, codes[i]);
        memcpy(p, "\r\n", 2);
        p += 2;
    }
    return p - out;
}
