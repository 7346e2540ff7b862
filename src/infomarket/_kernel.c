/* The periods of a market session, on flat buffers, draws included, whole
 * batch sessions and whole strategy-switching chains.
 *
 * This is the compiled twin of the Python loop in engine.py: `draw_period`
 * followed by `MarketSession._trade_period`, which stay the specification.
 * It makes the same draws from the session's generator, through numpy's own
 * C algorithms (numpy/random/distributions.h, linked statically from
 * numpy's libnpyrandom.a) on the generator's bitgen_t, so the generator
 * ends in the same state. It then runs the same rules, affordability checks,
 * book and settlement, in the same floating-point operation order, so both
 * produce the same bits. The caller owns every buffer (see _kernel.py,
 * whose Session mirrors `im_session`, Block `im_block` and Chain `im_chain`).
 * Blocks and chains read the market from the session header: the periods,
 * the walk's start, scale and extra dividends, the discount rate and its
 * factors, the endowments and the initial price. engine.lay_out_state
 * fills it, the factors with Python's `**`, the Python loop's pow.
 *
 * `im_run_periods` runs periods of one session. `im_run_block` runs one
 * share of a batch, montecarlo._run_session_block, whose Python loop stays
 * its specification: per session it draws the session's dividend walk and
 * fills the present-value table once, then per run resets the state a
 * fresh MarketSession starts from and runs every period, all on one state
 * laid out once per share. It seeds every generator itself from the master
 * seed's key words, with numpy's SeedSequence and PCG64 reproduced below,
 * so it draws the streams rng.stream gives; `im_seed_pcg64` and
 * `im_pcg64_draw` expose them to the tests and to _kernel._load's
 * self-check. montecarlo.BLOCK_SPEC lists the names that send a block to the
 * Python loop when patched: the rules, the book methods, the dividend walk,
 * run_session, stream and engine's present-value function.
 * `im_run_chain` runs one chain of switching.run_switching_sim, whose Python
 * loop stays its specification: per segment it draws the dividend walk,
 * fills the present values and marks, resets the state a fresh
 * MarketSession starts from, and trades and evaluates every period, all on
 * one state laid out once per chain. switching.CHAIN_SPEC lists the names
 * that send a chain to the Python loop when patched: the rules, the book
 * methods, the dividend walk, both modules' present-value function,
 * MarketSession and its run_period and set_strategy, and
 * SwitchingConfig.session_config.
 *
 * Each side of the book is a binary heap keyed (price, seq), best first.
 * seq is unique, so the pop order equals that of Python's heapq.
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
 */

#include "numpy/random/distributions.h"
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { RANDOM = 0, FUNDAMENTALIST = 1, CHARTIST = 2 };
enum { NO_ACTION = 0, LIMIT_BID, LIMIT_ASK, MARKET_SELL, MARKET_BUY };

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

/* asks: lower price first; bids: higher price first; then earlier seq */
static inline int better(const im_order *a, const im_order *b, int is_bid)
{
    if (a->price != b->price)
        return is_bid ? a->price > b->price : a->price < b->price;
    return a->seq < b->seq;
}

static void heap_push(im_order *heap, int64_t *len, im_order item, int is_bid)
{
    int64_t pos = (*len)++;
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (!better(&item, &heap[parent], is_bid))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

static im_order heap_pop(im_order *heap, int64_t *len, int is_bid)
{
    im_order top = heap[0];
    im_order last = heap[--(*len)];
    int64_t end = *len, pos = 0;
    if (end == 0)
        return top;
    for (;;) {
        int64_t child = 2 * pos + 1;
        if (child >= end)
            break;
        if (child + 1 < end && better(&heap[child + 1], &heap[child], is_bid))
            child++;
        if (!better(&heap[child], &last, is_bid))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = last;
    return top;
}

/* agents._sell and agents._buy: a market order when the price crosses the
 * opposite real best, a limit order when it is positive, else nothing. */
static inline int sell(double price, int has_bid, double bid, double *out)
{
    if (has_bid && price < bid)
        return MARKET_SELL;
    if (price > 0) {
        *out = price;
        return LIMIT_ASK;
    }
    return NO_ACTION;
}

static inline int buy(double price, int has_ask, double ask, double *out)
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
static int inside_limit(double anchor, double p, int has_bid, double bid, int has_ask, double ask,
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

static int decide(const im_session *s, const double *pv_row, int64_t i, double p, int has_bid, double bid,
                  int has_ask, double ask, double u, double z, double *out)
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
        int64_t n = s->n_prices;
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

static void record_trade(im_session *s, int64_t step, double price, int64_t buyer, int64_t seller)
{
    int64_t t = s->n_trades++;
    s->trade_steps[t] = step;
    s->trade_prices[t] = price;
    s->trade_buyers[t] = buyer;
    s->trade_sellers[t] = seller;
}

/* engine.draw_period: one period's variates from bg, in the documented
 * layout, each through the C function numpy's Generator method calls. */
static void draw_period(im_session *s, bitgen_t *bg)
{
    const int64_t n = s->n, m = s->m, steps = s->steps;
    int64_t *perm = s->perm;
    /* permutation(n): arange(n), then shuffle's Fisher-Yates from the end */
    for (int64_t i = 0; i < n; i++)
        perm[i] = i;
    for (int64_t i = n - 1; i > 0; i--) {
        int64_t j = (int64_t)random_interval(bg, (uint64_t)i);
        int64_t t = perm[i];
        perm[i] = perm[j];
        perm[j] = t;
    }
    random_standard_uniform_fill(bg, m, s->u);               /* random(m) */
    random_standard_normal_fill(bg, m, s->z);                /* standard_normal(m) */
    random_bounded_uint64_fill(bg, 0, (uint64_t)(n - 1), steps, false,
                               (uint64_t *)s->order);        /* integers(0, n, size=steps) */
    random_standard_uniform_fill(bg, steps, s->u + m);       /* random(steps) */
    random_standard_normal_fill(bg, steps, s->z + m);        /* standard_normal(steps) */
}

/* MarketSession._trade_period: one period's activations on its draws and
 * its row of present values, then the settlement with dividend d. Returns
 * 0, or -1 when a side of the book is full. */
static int trade_period(im_session *s, const double *pv_row, double d)
{
    const int64_t n = s->n;
    double *cash = s->cash, *held_cash = s->held_cash;
    int64_t *shares = s->shares, *held_shares = s->held_shares;
    double p = s->last_price;
    int64_t j = 0; /* index of the activation's u and z */
    for (int64_t a = 0; a < n + s->steps; a++) {
        int stepping = a >= n;
        int64_t i;
        if (stepping) {
            i = s->order[a - n];
        } else {
            i = s->perm[a];
            if (s->level[i] == 0)
                continue;
        }
        double u = s->u[j], z = s->z[j];
        j++;
        int has_bid = s->n_bids > 0, has_ask = s->n_asks > 0;
        double bid = has_bid ? s->bids[0].price : 0.0;
        double ask = has_ask ? s->asks[0].price : 0.0;
        double price = 0.0;
        int kind = decide(s, pv_row, i, p, has_bid, bid, has_ask, ask, u, z, &price);
        /* The trader must afford the intent: no shorting, no credit,
         * counting what its resting orders already commit. */
        switch (kind) {
        case LIMIT_BID:
            if (cash[i] - held_cash[i] >= price) {
                if (s->n_bids == s->book_cap)
                    return -1;
                im_order o = {price, s->seq++, i};
                heap_push(s->bids, &s->n_bids, o, 1);
                held_cash[i] += price;
            }
            break;
        case LIMIT_ASK:
            if (shares[i] - held_shares[i] >= 1) {
                if (s->n_asks == s->book_cap)
                    return -1;
                im_order o = {price, s->seq++, i};
                heap_push(s->asks, &s->n_asks, o, 0);
                held_shares[i] += 1;
            }
            break;
        case MARKET_SELL:
            if (shares[i] - held_shares[i] >= 1 && s->n_bids > 0) {
                im_order o = heap_pop(s->bids, &s->n_bids, 1);
                int64_t buyer = o.trader;
                p = o.price;
                cash[buyer] -= p;
                shares[buyer] += 1;
                held_cash[buyer] -= p;
                cash[i] += p;
                shares[i] -= 1;
                record_trade(s, s->n_prices + 1, p, buyer, i);
            }
            break;
        case MARKET_BUY:
            if (has_ask && cash[i] - held_cash[i] >= ask) {
                im_order o = heap_pop(s->asks, &s->n_asks, 0);
                int64_t seller = o.trader;
                p = o.price;
                cash[i] -= p;
                shares[i] += 1;
                cash[seller] += p;
                shares[seller] -= 1;
                held_shares[seller] -= 1;
                record_trade(s, s->n_prices + 1, p, i, seller);
            }
            break;
        }
        if (stepping)
            s->prices[s->n_prices++] = p;
    }
    s->last_price = p;
    int64_t k = ++s->periods_done;
    for (int64_t i = 0; i < n; i++) {
        cash[i] = cash[i] * s->growth + (double)shares[i] * d;
        s->cash_hist[k * n + i] = cash[i];
        s->shares_hist[k * n + i] = shares[i];
    }
    s->period_end_prices[k - 1] = p;
    if (s->clear) {
        s->n_asks = s->n_bids = 0;
        for (int64_t i = 0; i < n; i++) {
            held_cash[i] = 0.0;
            held_shares[i] = 0;
        }
    }
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
 * the halves of one 64-bit output, low half first. numpy's Generator
 * methods draw from such a generator through the same bitgen_t, so the
 * variates and the final state are numpy's own. */

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

/* A PCG64 and the bitgen_t numpy's distribution functions draw from it. */
typedef struct {
    im_pcg64 pcg;
    bitgen_t bitgen;
} im_generator;

#define PCG_MULT ((u128)2549297995355413924ULL << 64 | 4865540595714422341ULL)

static inline uint64_t pcg64_next64(void *st)
{
    im_pcg64 *g = st;
    g->state = g->state * PCG_MULT + g->inc;
    uint64_t folded = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return folded >> rot | folded << (-rot & 63);
}

static uint32_t pcg64_next32(void *st)
{
    im_pcg64 *g = st;
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return g->uinteger;
    }
    uint64_t next = pcg64_next64(g);
    g->has_uint32 = 1;
    g->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double pcg64_next_double(void *st)
{
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

static void bind(im_generator *gen)
{
    gen->bitgen = (bitgen_t){&gen->pcg, pcg64_next64, pcg64_next32, pcg64_next_double, pcg64_next64};
}

/* PCG64(SeedSequence(key)) for the key words fed to `q` (a copy: the caller
 * keeps its seeder to feed more components). */
static void seed_generator(im_generator *gen, im_seeder q)
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
    im_pcg64 *g = &gen->pcg;
    g->inc = inc << 1 | 1;
    g->state = g->inc; /* one step from 0 */
    g->state = (g->state + seed) * PCG_MULT + g->inc;
    g->has_uint32 = 0;
    g->uinteger = 0;
    bind(gen);
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
    im_generator gen;
    for (int64_t k = 0; k < n_keys; k++) {
        im_seeder q = NEW_SEEDER;
        for (int64_t i = k ? ends[k - 1] : 0; i < ends[k]; i++)
            feed_word(&q, words[i]);
        seed_generator(&gen, q);
        put_state(out + 6 * k, &gen.pcg);
    }
    return 0;
}

enum { DRAW_RAW = 0, DRAW_INTEGERS, DRAW_RANDOM, DRAW_NORMAL };

/* `count` draws of one kind from the generator in `state` (six words, read
 * and written back), as numpy's bit_generator.random_raw(count),
 * integers(0, bound, count), random(count) or standard_normal(count) make
 * them. Returns 0, or -1 for an unknown kind or a bound below 1. */
int im_pcg64_draw(uint64_t *state, int64_t kind, int64_t count, int64_t bound, void *out)
{
    im_generator gen;
    bind(&gen);
    get_state(&gen.pcg, state);
    switch (kind) {
    case DRAW_RAW:
        for (int64_t i = 0; i < count; i++)
            ((uint64_t *)out)[i] = pcg64_next64(&gen.pcg);
        break;
    case DRAW_INTEGERS:
        if (bound < 1)
            return -1;
        random_bounded_uint64_fill(&gen.bitgen, 0, (uint64_t)(bound - 1), count, false, out);
        break;
    case DRAW_RANDOM:
        random_standard_uniform_fill(&gen.bitgen, count, out);
        break;
    case DRAW_NORMAL:
        random_standard_normal_fill(&gen.bitgen, count, out);
        break;
    default:
        return -1;
    }
    put_state(state, &gen.pcg);
    return 0;
}

/* One period: its draws from bg and its trading on its row of the
 * present-value table. Returns 0, or -1 when a side of the book is full. */
static int run_period(im_session *s, bitgen_t *bg)
{
    int64_t k = s->periods_done; /* this period's row, 0-based */
    draw_period(s, bg);
    return trade_period(s, s->pv_table + k * s->n, s->dividends[k]);
}

/* The next `count` periods. Returns 0, or -1 when a side of the book is
 * full (the periods before it are done). */
int im_run_periods(im_session *s, bitgen_t *bg, int64_t count)
{
    for (int64_t c = 0; c < count; c++)
        if (run_period(s, bg))
            return -1;
    return 0;
}

/* One strategy-switching chain (switching.run_switching_sim): its length,
 * its evaluation interval, its scratch buffers and its outputs. The market
 * is the session header's, whose `periods` is a segment's length. The
 * caller owns every buffer (see _kernel.Chain). */
typedef struct {
    int64_t n_periods;    /* the chain's periods */
    int64_t interval;     /* periods per strategy evaluation */
    double *walk;         /* periods + path_extra: the segment's dividends */
    double *marks;        /* periods + 1: the top level's present values, periods 1.. */
    double *returns;      /* n: the interval's returns */
    int64_t *codes;       /* n_periods / interval + 1, codes[0] the initial code */
    int64_t tie_events;
    int64_t all_equal_events;
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
static void draw_walk(const im_session *s, double *walk, int64_t periods, bitgen_t *bg)
{
    const int64_t points = periods + s->path_extra;
    double d = s->d0;
    walk[0] = d;
    random_standard_normal_fill(bg, points - 1, walk + 1);
    for (int64_t i = 1; i < points; i++) {
        d = fabs(d + s->sigma * walk[i]);
        walk[i] = d;
    }
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
static void start_segment(im_session *s, im_chain *c, bitgen_t *bg, int64_t length)
{
    draw_walk(s, c->walk, length, bg);
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
 * every endowment is restored. Writes codes[1..] and the tie counts.
 * Returns 0, or -1 when a side of the book is full. */
int im_run_chain(im_session *s, im_chain *c, bitgen_t *bg)
{
    const int64_t n = s->n, segment = s->periods, shares = s->initial_shares;
    const double cash = s->initial_cash;
    double *r = c->returns;
    int64_t code = c->codes[0], recorded = 1, done = 0;
    while (done < c->n_periods) {
        int64_t length = c->n_periods - done < segment ? c->n_periods - done : segment;
        start_segment(s, c, bg, length);
        double w = cash + (double)shares * c->marks[0];
        for (int64_t k = 1; k <= length; k++) {
            if (run_period(s, bg))
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
                c->all_equal_events++;
            else if (tie)
                c->tie_events++;
            code = c->codes[recorded++] = bits + 1;
            for (int64_t i = 0; i < n; i++) {
                s->cash[i] = cash;
                s->shares[i] = shares;
            }
            w = cash + (double)shares * m;
        }
    }
    return 0;
}

/* A share of a batch (montecarlo._run_session_block): the sessions it runs,
 * their runs, the master seed and domains their streams derive from and the
 * batch-wide outputs it writes its sessions' rows of. The market is the
 * session header's. The caller owns every buffer (see _kernel.Block). */
typedef struct {
    int64_t runs;         /* per session */
    const uint32_t *master; /* n_master: the master seed's key words */
    int64_t n_master;
    int64_t path_domain;  /* rng.PATH_DOMAIN: a walk's key is (master, path_domain, session) */
    int64_t run_domain;   /* rng.RUN_DOMAIN: a run's key is (master, run_domain, session, run) */
    const int64_t *sessions; /* n_sessions: the share's batch session indices */
    int64_t n_sessions;
    double *walks;        /* batch sessions x (periods + path_extra): each session's dividends */
    double *wealth;       /* batch runs x n, row session * runs + run: final cash plus shares at the last close */
    double *closes;       /* batch runs x periods: each period's last price */
    uint64_t *states;     /* NULL, or batch sessions x (runs + 1) x 6: the walk's, then each run's final state */
} im_block;

int64_t im_block_size(void) { return (int64_t)sizeof(im_block); }

/* Every session of a share on one session state: per session its dividend
 * walk from its own generator, its present-value table once, then every run
 * from the state a fresh MarketSession starts from, on its own generator,
 * and its wealth and closing prices. Each generator is seeded here as
 * rng.stream seeds it. Returns 0, or -1 when a side of the book is full. */
int im_run_block(im_session *s, im_block *b)
{
    const int64_t n = s->n, periods = s->periods, runs = b->runs, points = periods + s->path_extra;
    im_seeder master = NEW_SEEDER;
    for (int64_t i = 0; i < b->n_master; i++)
        feed_word(&master, b->master[i]);
    im_seeder path_key = master, run_key = master;
    feed(&path_key, (uint64_t)b->path_domain);
    feed(&run_key, (uint64_t)b->run_domain);
    im_generator gen;
    for (int64_t k = 0; k < b->n_sessions; k++) {
        const int64_t session = b->sessions[k];
        double *walk = b->walks + session * points;
        uint64_t *states = b->states ? b->states + session * (runs + 1) * 6 : NULL;
        im_seeder key = path_key;
        feed(&key, (uint64_t)session);
        seed_generator(&gen, key);
        draw_walk(s, walk, periods, &gen.bitgen);
        if (states)
            put_state(states, &gen.pcg);
        fill_table(s, walk, periods);
        im_seeder session_key = run_key;
        feed(&session_key, (uint64_t)session);
        for (int64_t r = 0; r < runs; r++) {
            key = session_key;
            feed(&key, (uint64_t)r);
            seed_generator(&gen, key);
            reset_session(s);
            if (im_run_periods(s, &gen.bitgen, periods))
                return -1;
            const int64_t row = session * runs + r;
            double *wealth = b->wealth + row * n;
            for (int64_t i = 0; i < n; i++)
                wealth[i] = s->cash[i] + (double)s->shares[i] * s->last_price;
            memcpy(b->closes + row * periods, s->period_end_prices, (size_t)periods * sizeof(double));
            if (states)
                put_state(states + (r + 1) * 6, &gen.pcg);
        }
    }
    return 0;
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
