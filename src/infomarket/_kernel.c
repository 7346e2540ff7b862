/* The periods of a market session, on flat buffers, draws included.
 *
 * This is the compiled twin of the Python loop in engine.py: `draw_period`
 * followed by `MarketSession._trade_period`, which stay the specification.
 * It makes the same draws from the session's generator, through numpy's own
 * C algorithms (numpy/random/distributions.h, linked statically from
 * numpy's libnpyrandom.a) on the generator's bitgen_t, so the generator
 * ends in the same state. It then runs the same rules, affordability checks,
 * book and settlement, in the same floating-point operation order, so both
 * produce the same bits. The caller owns every buffer (see _kernel.py,
 * whose FIELDS mirror `im_session`).
 *
 * Each side of the book is a binary heap keyed (price, seq), best first.
 * seq is unique, so the pop order equals that of Python's heapq.
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

typedef struct {
    /* sizes and constants */
    int64_t n;           /* traders */
    int64_t m;           /* informed traders: the seeding pass's activations */
    int64_t steps;       /* steps per period */
    int64_t clear;       /* clear the book at the period end */
    double growth;       /* 1 + r_f */
    /* per trader, length n */
    const int64_t *level;
    const int64_t *strategy;
    double *pv;          /* this period's present values: a row of pv_table */
    const double *pv_table; /* n_periods x n, 0 for the uninformed */
    const double *dividends; /* n_periods: the dividend paid at each period's end */
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

static int decide(const im_session *s, int64_t i, double p, int has_bid, double bid, int has_ask,
                  double ask, double u, double z, double *out)
{
    switch (s->strategy[i]) {
    case RANDOM:
        if (u < 0.5)
            return sell(p + 2.0 * z, has_bid, bid, out);
        return buy(p + 2.0 * z, has_ask, ask, out);
    case FUNDAMENTALIST: {
        double pv = s->pv[i];
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

/* MarketSession._trade_period: one period's activations on its draws, then
 * the settlement with dividend d. Returns 0, or -1 when a side of the book
 * is full. */
static int trade_period(im_session *s, double d)
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
        int kind = decide(s, i, p, has_bid, bid, has_ask, ask, u, z, &price);
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

/* The next `count` periods, each delivered its present values, drawn from
 * bg and traded. Returns 0, or -1 when a side of the book is full (the
 * periods before it are done). */
int im_run_periods(im_session *s, bitgen_t *bg, int64_t count)
{
    const int64_t n = s->n;
    for (int64_t c = 0; c < count; c++) {
        int64_t k = s->periods_done; /* this period's row, 0-based */
        memcpy(s->pv, s->pv_table + k * n, (size_t)n * sizeof(double));
        draw_period(s, bg);
        if (trade_period(s, s->dividends[k]))
            return -1;
    }
    return 0;
}
